import itertools
import math
import random
from fractions import Fraction

import pytest

from rotagraph import elliptic as ep
from rotagraph.algebraic import (
    AlgReal, EQUAL, combo, compare, div, dot, mul, neg, sqrt_nonneg, sub,
)
from rotagraph.errors import (
    InfeasibleError, OutOfRangeError, PreconditionError, ZeroVectorError,
)

E1 = ep.make_point(1, 0, 0)
E2 = ep.make_point(0, 1, 0)
E3 = ep.make_point(0, 0, 1)
COS45 = ep.as_dist_cos(Fraction(4, 5))


def test_make_point_canonical():
    # scaling and global sign do not change the point
    assert ep.make_point(2, 0, 0) == E1
    assert ep.make_point(-3, 0, 0) == E1
    assert ep.make_point(Fraction(3, 5), Fraction(4, 5), 0) == ep.make_point(3, 4, 0)
    with pytest.raises(ZeroVectorError):
        ep.make_point(0, 0, 0)


def test_unit_lift_exact():
    p = ep.make_point(1, 2, 2)
    approx = sum(float(c) ** 2 for c in p.lift)
    assert abs(approx - 1) < 1e-12
    norm2 = dot(p.lift, p.lift)
    assert compare(norm2, AlgReal(1)) == EQUAL


def test_dist_cos_examples():
    assert ep.dist_cos(E1, E1) == ep.as_dist_cos(1)
    assert ep.dist_cos(E1, E2) == ep.as_dist_cos(0)
    q = ep.make_point(Fraction(3, 5), Fraction(4, 5), 0)
    assert ep.dist_cos(E1, q) == ep.as_dist_cos(Fraction(3, 5))
    # antipodal lifts give the same point, distance folds through |.|
    assert ep.dist_cos(E1, ep.make_point(-1, 0, 0)) == ep.as_dist_cos(1)


def test_dist_cos_range_guard():
    with pytest.raises(OutOfRangeError):
        ep.DistCos(AlgReal(2))
    with pytest.raises(OutOfRangeError):
        ep.DistCos(AlgReal(Fraction(-1, 2)))


def test_dist_cos_compares_with_anything():
    """== compares a distance cosine with any operand, as AlgReal's does:
    False for a number outside [0, 1] and for an operand that is no number,
    True for the same cosine in any form."""
    c = ep.as_dist_cos(Fraction(4, 5))
    for other in (None, "x", 2, Fraction(-1, 2), AlgReal(2), sqrt_nonneg(AlgReal(2)),
                  Fraction(3, 5), ep.as_dist_cos(0), object()):
        assert not c == other and c != other and not other == c, other
    for same in (Fraction(4, 5), "4/5", AlgReal(Fraction(4, 5)), ep.as_dist_cos("8/10")):
        assert c == same and same == c and not c != same, same
    assert c in [None, "x", 2, Fraction(4, 5)]
    assert ep.as_dist_cos(sqrt_nonneg(AlgReal(Fraction(1, 2)))) == div(1, sqrt_nonneg(AlgReal(2)))


def test_dist_cos_hashes_as_the_value_it_equals():
    """Equal cosines built two ways hash alike, as the number they equal
    does, and dedupe in a set."""
    one = ep.as_dist_cos(1)
    assert hash(one) == hash(ep.as_dist_cos("2/2")) == hash(1)
    half = ep.as_dist_cos(sqrt_nonneg(AlgReal(Fraction(1, 2))))
    also = ep.as_dist_cos(div(1, sqrt_nonneg(AlgReal(2))))
    assert half == also and hash(half) == hash(also) == hash(half.value)
    assert len({one, ep.as_dist_cos(Fraction(4, 4)), half, also, COS45}) == 3


def test_equidistant_point_exact():
    q = ep.make_point(Fraction(9, 11), Fraction(6, 11), Fraction(2, 11))
    m = ep.equidistant_point(E1, q, COS45)
    assert ep.dist_cos(m, E1) == COS45
    assert ep.dist_cos(m, q) == COS45


def test_equidistant_feasibility_boundary():
    # cos d(p,q) = T_2(4/5) = 7/25 exactly: feasible, degenerate lambda = 0
    q = ep.make_point(Fraction(7, 25), Fraction(24, 25), 0)
    assert ep.dist_cos(E1, q) == ep.as_dist_cos(Fraction(7, 25))
    m = ep.equidistant_point(E1, q, COS45)
    assert ep.dist_cos(m, E1) == COS45 and ep.dist_cos(m, q) == COS45
    # barely beyond: infeasible
    far = ep.make_point(Fraction(6, 25), 1, 0)
    with pytest.raises(InfeasibleError):
        ep.equidistant_point(E1, far, COS45)


def test_equidistant_point_infeasible_exactly_when_two_balls_miss():
    """The construction decides feasibility itself: it raises with the
    two-ball detail exactly when two_ball_feasible is false, and otherwise
    returns a point at both distances."""
    rng = random.Random(19)
    infeasible = 0
    for _ in range(200):
        p, q = ep.random_rational_point(rng), ep.random_rational_point(rng)
        cos_r = ep.as_dist_cos(Fraction(rng.randint(1, 9), 10))
        if ep.two_ball_feasible(p, q, cos_r):
            z = ep.equidistant_point(p, q, cos_r)
            assert ep.dist_cos(z, p) == cos_r and ep.dist_cos(z, q) == cos_r
        else:
            with pytest.raises(InfeasibleError) as err:
                ep.equidistant_point(p, q, cos_r)
            assert err.value.detail == "points are farther apart than twice the radius"
            infeasible += 1
    assert 0 < infeasible < 200


def test_ell_n_cos_folds_a_negative_value():
    # cos^2 l + sin^2 l * T_2(cos apex) = 1/4 - 7/12 = -1/3 at cos l = 1/2
    assert ep.ell_n_cos(Fraction(1, 2), 2) == ep.as_dist_cos(Fraction(1, 3))


def test_circle_intersect_unequal_radii():
    q = ep.make_point(Fraction(9, 11), Fraction(6, 11), Fraction(2, 11))
    r1, r2 = ep.as_dist_cos(Fraction(4, 5)), ep.as_dist_cos(Fraction(7, 8))
    w = ep.circle_intersect(E1, r1, q, r2)
    assert ep.dist_cos(w, E1) == r1
    assert ep.dist_cos(w, q) == r2


def test_a_point_equals_itself_with_no_cross_product(monkeypatch):
    """Equality is reflexive, so p == p and p != p compute no cross
    product; an equal point held in another object still takes one."""
    calls = []
    original = ep._cross
    monkeypatch.setattr(ep, "_cross", lambda x, y: calls.append((x, y)) or original(x, y))
    p = ep.make_point(1, 2, 2)
    assert p == p and not p != p and calls == []
    assert p == ep.make_point(2, 4, 4) and len(calls) == 1


def test_circle_intersect_coincident_centres():
    w = ep.circle_intersect(E1, COS45, E1, COS45)
    assert ep.dist_cos(w, E1) == COS45
    with pytest.raises(InfeasibleError):
        ep.circle_intersect(E1, COS45, E1, ep.as_dist_cos(Fraction(1, 2)))


def _gram_schmidt_coincident(p, a):
    """The coincident-centre point of radius cosine a about p built the
    Gram-Schmidt way: a*x + sqrt(1 - a^2)*u, with u the normalised part of
    the first coordinate vector not parallel to x orthogonal to x."""
    x = p.lift
    if compare(a, AlgReal(1)) == EQUAL:
        return ep.ProjPoint(x)
    for e in ep._BASIS:
        w = combo((AlgReal(1), neg(dot(e, x))), (e, x))
        n2 = dot(w, w)
        if n2.sign() > 0:
            break
    u = tuple(div(c, sqrt_nonneg(n2)) for c in w)
    b = sqrt_nonneg(sub(AlgReal(1), mul(a, a)))
    return ep._unit_canonical(combo((a, b), (x, u)))


def test_circle_intersect_coincident_centres_match_gram_schmidt():
    radii = [AlgReal(Fraction(v))
             for v in ("0", "1/10", "1/2", "3/5", "4/5", "9/10", "1")]
    centres = [ep.make_point(*v) for v in (
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 4, 0), (1, 2, 2), (2, 3, 6),
        (1, 1, 0), (1, 1, 1), (1, -2, 3), (-2, 1, 5))]
    for seed in range(3):
        rng = random.Random(seed)
        centres.append(ep.random_point_at_distance(rng, ep.random_rational_point(rng),
                                                   COS45))
    for p in centres:
        for a in radii:
            w = ep.circle_intersect(p, a, p, a)
            assert ep.point_to_json(w) == \
                ep.point_to_json(_gram_schmidt_coincident(p, a)), (p, a)


def test_geodesic_step():
    r = ep.geodesic_step(E1, E2, COS45)
    assert ep.dist_cos(r, E1) == COS45
    # stepping l toward a point at distance pi/2 leaves cos(pi/2 - l) = sin l
    assert ep.dist_cos(r, E2) == ep.as_dist_cos(Fraction(3, 5))
    with pytest.raises(PreconditionError):
        ep.geodesic_step(E1, E1, COS45)


def test_apex_angle_examples():
    assert ep.apex_angle_cos(COS45).as_rational() == Fraction(4, 9)
    assert ep.apex_angle_cos(ep.as_dist_cos(Fraction(1, 2))).as_rational() \
        == Fraction(1, 3)


def test_apex_angle_law_of_cosines():
    # cos a = (c - c^2) / (1 - c^2) with all three sides equal to l
    for c in (Fraction(4, 5), Fraction(7, 8), Fraction(3, 5)):
        apex = ep.apex_angle_cos(ep.as_dist_cos(c))
        assert apex.as_rational() == (c - c * c) / (1 - c * c)


def test_ell_n_cos_against_float_rotation():
    c = 0.8
    l = math.acos(c)
    alpha = math.acos(c / (1 + c))
    axis = (0.0, 0.0, 1.0)
    y = (math.sin(l), 0.0, math.cos(l))
    for n in range(11):
        got = float(ep.ell_n_cos(COS45, n).value)
        ca, sa = math.cos(n * alpha), math.sin(n * alpha)
        yn = (y[0] * ca - y[1] * sa, y[0] * sa + y[1] * ca, y[2])
        want = abs(sum(a * b for a, b in zip(y, yn)))
        assert abs(got - want) < 1e-9, n


def test_ell_n_witness_round_trip():
    rng = random.Random(5)
    p = ep.random_point_at_distance(rng, E3, COS45)
    for n in (1, 2, 3):
        target = ep.ell_n_cos(COS45, n)
        q = _chain_endpoint(p, n)
        assert ep.dist_cos(p, q) == target
        o, chain = ep.construct_ell_n_witness(p, q, COS45, n)
        assert len(chain) == n + 1
        assert chain[0] == p and chain[-1] == q
        assert ep.verify_ell_n_witness(o, chain, COS45)


def _chain_endpoint(p, n):
    ca = ep.apex_angle_cos(COS45)
    sa = sqrt_nonneg(sub(AlgReal(1), mul(ca, ca)))
    return ep._frame_chain(E3, p, ca, sa, n)[n]


def test_witness_rejects_wrong_distance():
    rng = random.Random(5)
    p = ep.random_point_at_distance(rng, E3, COS45)
    with pytest.raises(PreconditionError):
        ep.construct_ell_n_witness(p, E3, COS45, 2)


def test_verify_catches_backtracking():
    rng = random.Random(5)
    p = ep.random_point_at_distance(rng, E3, COS45)
    q = _chain_endpoint(p, 1)  # apex-angle rotation: d(p, q) = l exactly
    assert ep.dist_cos(p, q) == COS45
    # chain p -> q -> p backtracks even though every hop has length l
    assert not ep.verify_ell_n_witness(E3, [p, q, p], COS45)


def test_rotation_about_is_orthogonal():
    from rotagraph import isometry
    r = isometry.rotation_about(E3, Fraction(3, 5), Fraction(4, 5))
    assert isometry.is_orthogonal(r)
    assert isometry.apply(r, E3) == E3
    with pytest.raises(PreconditionError):
        isometry.rotation_about(E3, Fraction(1, 2), Fraction(1, 2))


def test_point_json_round_trip():
    q = ep.equidistant_point(
        E1, ep.make_point(Fraction(9, 11), Fraction(6, 11), Fraction(2, 11)),
        COS45)
    assert ep.point_from_json(ep.point_to_json(q)) == q


def test_random_generators_deterministic():
    a = [ep.random_rational_point(random.Random(9)) for _ in range(3)]
    b = [ep.random_rational_point(random.Random(9)) for _ in range(3)]
    assert a == b
    rng = random.Random(2)
    p = ep.random_rational_point(rng)
    q = ep.random_point_at_distance(rng, p, COS45)
    assert ep.dist_cos(p, q) == COS45


def test_rational_unit_pool_names_distinct_points():
    pool = ep._rational_unit_pool()
    for a, b, c, r in pool:
        assert a * a + b * b + c * c == r * r
    for (u, v) in itertools.combinations([entry[:3] for entry in pool], 2):
        cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0])
        assert any(cross), (u, v)
