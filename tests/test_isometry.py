import random
from fractions import Fraction

import pytest

from rotagraph import elliptic as ep
from rotagraph import isometry as iso
from rotagraph.algebraic import AlgReal, EQUAL, compare, div, sqrt_nonneg
from rotagraph.errors import PreconditionError

E1 = ep.make_point(1, 0, 0)
E2 = ep.make_point(0, 1, 0)
E3 = ep.make_point(0, 0, 1)


def test_is_orthogonal():
    assert iso.is_orthogonal(iso.identity())
    assert not iso.is_orthogonal(iso.LinearMap(((1, 0, 0), (0, 1, 0), (0, 0, 2))))
    r = ep.rotation_about(E3, Fraction(3, 5), Fraction(4, 5))
    assert iso.is_orthogonal(r)
    assert compare(r.det(), AlgReal(1)) == EQUAL


def test_rotation_about_with_irrational_sine():
    s65 = div(sqrt_nonneg(AlgReal(65)), AlgReal(9))
    r = ep.rotation_about(E3, Fraction(4, 9), s65)
    assert iso.is_orthogonal(r)
    assert iso.fixed_point(r) == E3


def test_fixed_point_identity_deterministic():
    # rank <= 1 eigenspaces: which kernel vector is chosen is pinned, not
    # just that the point is fixed
    for diag, want in (((1, 1, 1), E1), ((1, 1, -1), E2), ((2, 2, 3), E2)):
        m = iso.LinearMap([[diag[i] if i == j else 0 for j in range(3)]
                           for i in range(3)])
        assert iso.fixed_point(m) == want


def test_fixed_point_integer_matrix_cbrt2():
    m = iso.LinearMap(((0, 1, 0), (0, 0, 1), (2, 0, 0)))
    p = iso.fixed_point(m)
    assert iso.apply(m, p) == p
    # the eigenvalue is the cube root of 2: lift ratios confirm it
    x, y, _ = p.raw_lift
    lam = div(y, x)
    assert lam.min_poly == (-2, 0, 0, 1)


def test_fixed_point_random_integer_matrices():
    rng = random.Random(23)
    for _ in range(8):
        while True:
            m = iso.LinearMap([[rng.randint(-4, 4) for _ in range(3)]
                               for _ in range(3)])
            if m.det().sign() != 0:
                break
        p = iso.fixed_point(m)
        assert iso.apply(m, p) == p


def test_fixed_point_rejects_singular():
    with pytest.raises(PreconditionError):
        iso.fixed_point(iso.LinearMap(((1, 0, 0), (0, 1, 0), (0, 0, 0))))


def test_fixed_point_special_orthogonal_axis():
    for seed in range(6):
        m = iso.random_rational_orthogonal(seed)
        assert iso.is_orthogonal(m)
        assert compare(m.det(), AlgReal(1)) == EQUAL
        p = iso.fixed_point(m)
        assert iso.apply(m, p) == p
        # eigenvalue 1: the lift is in the kernel of m - I
        img = m.apply_lift(p.raw_lift)
        assert all(compare(a, b) == EQUAL for a, b in zip(img, p.raw_lift))


def test_random_rational_orthogonal_deterministic():
    a, b = iso.random_rational_orthogonal(5), iso.random_rational_orthogonal(5)
    assert all(compare(x, y) == EQUAL
               for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))


def test_composition_consistency():
    m1 = iso.random_rational_orthogonal(1)
    m2 = iso.random_rational_orthogonal(2)
    rng = random.Random(4)
    for _ in range(3):
        p = ep.random_rational_point(rng)
        assert iso.apply(m1 @ m2, p) == iso.apply(m1, iso.apply(m2, p))


def test_orthogonal_maps_preserve_distance():
    m = iso.random_rational_orthogonal(3)
    rng = random.Random(8)
    for _ in range(5):
        p, q = ep.random_rational_point(rng), ep.random_rational_point(rng)
        assert ep.dist_cos(p, q) == ep.dist_cos(iso.apply(m, p), iso.apply(m, q))


def test_orthogonal_sending_transitivity_witness():
    rng = random.Random(12)
    for _ in range(5):
        p, q = ep.random_rational_point(rng), ep.random_rational_point(rng)
        m = iso.orthogonal_sending(p, q)
        assert iso.is_orthogonal(m)
        assert iso.apply(m, p) == q
    assert iso.apply(iso.orthogonal_sending(E1, E1), E1) == E1


def test_preserves_edges_biconditional():
    cos_l = ep.as_dist_cos(Fraction(4, 5))
    rng = random.Random(2)
    pairs = []
    for _ in range(4):
        p = ep.random_rational_point(rng)
        pairs.append((p, ep.random_point_at_distance(rng, p, cos_l)))
        pairs.append((p, ep.random_rational_point(rng)))
    m = iso.random_rational_orthogonal(9)
    assert iso.preserves_edges_on_sample(m, cos_l, pairs)
    assert iso.preserves_edges_on_sample(m, cos_l, [])
    # non-isometry scaling: find a sampled edge whose image distance moved
    stretch = iso.LinearMap(((1, 0, 0), (0, 1, 0), (0, 0, 2)))
    edge_pairs = [pr for pr in pairs if ep.dist_cos(*pr) == cos_l]
    assert not iso.preserves_edges_on_sample(stretch, cos_l, edge_pairs)


def test_matrix_json_round_trip():
    m = ep.rotation_about(E3, Fraction(4, 9),
                          div(sqrt_nonneg(AlgReal(65)), AlgReal(9)))
    m2 = iso.matrix_from_json(iso.matrix_to_json(m))
    assert all(compare(x, y) == EQUAL
               for ra, rb in zip(m.rows, m2.rows) for x, y in zip(ra, rb))
