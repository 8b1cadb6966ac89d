import math
import random
import time
from fractions import Fraction

import pytest

from rotagraph import elliptic as ep
from rotagraph import graph as gr
from rotagraph.algebraic import chebyshev_T
from rotagraph.errors import BoundExceededError, OutOfRangeError, PreconditionError
from rotagraph.expr import parse

E1 = ep.make_point(1, 0, 0)
E2 = ep.make_point(0, 1, 0)
SPEC45 = gr.GraphSpec(Fraction(4, 5))    # l = arccos(4/5) < pi/4
SPEC78 = gr.GraphSpec(Fraction(7, 8))


def test_spec_regime_flags():
    assert SPEC45.strict and SPEC78.strict
    assert not gr.GraphSpec(Fraction(1, 2)).strict   # l = pi/3 > pi/4
    with pytest.raises(OutOfRangeError):
        gr.GraphSpec(1)
    with pytest.raises(OutOfRangeError):
        gr.GraphSpec(0)


def test_is_edge():
    q = ep.make_point(Fraction(4, 5), Fraction(3, 5), 0)
    assert gr.is_edge(SPEC45, E1, q)
    assert not gr.is_edge(SPEC45, E1, E2)
    assert not gr.is_edge(SPEC45, E1, E1)


def test_diameter_examples():
    k, cert = gr.diameter(SPEC45)
    assert k == 3 and cert["upper"] == "T_3(cos l) <= 0"
    assert gr.diameter(SPEC78)[0] == 4
    with pytest.raises(PreconditionError):
        gr.diameter(gr.GraphSpec(Fraction(1, 2)))


def test_diameter_matches_ceiling_formula():
    for c in (Fraction(4, 5), Fraction(7, 8), Fraction(9, 10), Fraction(13, 14),
              parse("sqrt(15)/4")):
        k, _ = gr.diameter(gr.GraphSpec(c))
        assert k == math.ceil((math.pi / 2) / math.acos(float(c)))


def test_graph_distance_small_cases():
    assert gr.graph_distance(SPEC45, E1, E1)[0] == 0
    q = ep.make_point(Fraction(4, 5), Fraction(3, 5), 0)
    assert gr.graph_distance(SPEC45, E1, q)[0] == 1
    # closer than one edge: two steps out and back
    near = ep.make_point(Fraction(9, 11), Fraction(6, 11), Fraction(2, 11))
    k, cert = gr.graph_distance(SPEC45, E1, near)
    assert k == 2 and cert["lower"] == "p != q and d(p, q) != l"


def test_graph_distance_against_float_oracle():
    rng = random.Random(17)
    l = math.acos(0.8)
    for _ in range(12):
        p, q = ep.random_rational_point(rng), ep.random_rational_point(rng)
        k, _ = gr.graph_distance(SPEC45, p, q)
        d = math.acos(min(1.0, float(ep.dist_cos(p, q).value)))
        if d == 0:
            want = 0
        elif abs(d - l) < 1e-12:
            want = 1
        else:
            want = max(2, math.ceil(d / l))
        assert k == want


def test_witness_path_realizes_distance():
    rng = random.Random(6)
    for _ in range(5):
        p, q = ep.random_rational_point(rng), ep.random_rational_point(rng)
        k, _ = gr.graph_distance(SPEC45, p, q)
        path = gr.witness_path(SPEC45, p, q)
        assert len(path) == k
        assert gr.verify_path(SPEC45, path, p, q, k)


def test_witness_path_between_basis_points():
    for spec in (SPEC45, SPEC78):
        k, _ = gr.graph_distance(spec, E1, E2)
        assert k == gr.diameter(spec)[0]   # e1, e2 are at maximal distance
        path = gr.witness_path(spec, E1, E2)
        assert len(path) == k
        for a, b in zip(path.points, path.points[1:]):
            assert gr.is_edge(spec, a, b)


def test_verify_path_rejects_bad_paths():
    path = gr.witness_path(SPEC45, E1, E2)
    assert not gr.verify_path(SPEC45, path, E2, E1)          # endpoints swapped
    assert not gr.verify_path(SPEC45, gr.Path([E1, E2]), E1, E2)  # non-edge hop


def test_distance_requires_strict_regime():
    loose = gr.GraphSpec(Fraction(1, 2))
    with pytest.raises(PreconditionError):
        gr.graph_distance(loose, E1, E2)


def test_validate_spec():
    rep = gr.validate_spec(SPEC45)
    assert rep == {"strict": True, "edge_angle_rational": False,
                   "apex_angle_rational": False}
    # l = pi/3: rational edge angle, apex cos = 1/3 irrational angle
    rep = gr.validate_spec(gr.GraphSpec(Fraction(1, 2)))
    assert rep["edge_angle_rational"] and not rep["apex_angle_rational"]


def test_choose_ell_for_diameter():
    # from k = 11 on, T_k(c) <= 0 < T_{k-1}(c) also holds at later zero
    # crossings of cos(j*l) (3/4 has diameter 3 but meets the k = 11 sandwich)
    # the smallest-denominator cosine of each diameter, all of the form n/(n+1)
    dens = {3: 4, 4: 8, 5: 14, 6: 21, 7: 30, 8: 40, 9: 53, 10: 66, 11: 82,
            12: 99}
    for k, den in dens.items():
        spec = gr.choose_ell_for_diameter(k)
        assert spec.cos_l.value == Fraction(den - 1, den)
        assert gr.diameter(spec)[0] == k
        c = spec.cos_l.value
        assert chebyshev_T(k, c).sign() <= 0 < chebyshev_T(k - 1, c).sign()
        assert not gr.validate_spec(spec)["apex_angle_rational"]
    with pytest.raises(OutOfRangeError):
        gr.choose_ell_for_diameter(2)


def test_choose_ell_for_diameter_30_in_budget():
    start = time.monotonic()
    spec = gr.choose_ell_for_diameter(30)
    assert time.monotonic() - start < 10
    assert spec.cos_l.value == Fraction(681, 682)
    assert gr.diameter(spec)[0] == 30


def _stern_brocot_choose_ell(k):
    """The former search, kept as an oracle: a Stern-Brocot descent on
    (0, 1) that goes right when the mediant is not strict or its diameter
    is below k, and left when it is above."""
    lo, hi = (0, 1), (1, 1)
    while True:
        mid = (lo[0] + hi[0], lo[1] + hi[1])
        spec = gr.GraphSpec(Fraction(*mid))
        d = gr.diameter(spec)[0] if spec.strict else 0
        if d < k:
            lo = mid
        elif d > k:
            hi = mid
        else:
            return Fraction(*mid)


def test_choose_ell_matches_stern_brocot_descent():
    for k in range(3, 25):
        assert gr.choose_ell_for_diameter(k).cos_l.value == _stern_brocot_choose_ell(k), k


def test_choose_ell_for_diameter_64_in_budget():
    start = time.monotonic()
    spec = gr.choose_ell_for_diameter(64)
    assert time.monotonic() - start < 1
    assert spec.cos_l.value == Fraction(3217, 3218)
    assert gr.diameter(spec)[0] == 64


def test_step_budget():
    start = time.monotonic()
    with pytest.raises(BoundExceededError):
        gr.choose_ell_for_diameter(gr.MAX_STEPS + 1)
    assert time.monotonic() - start < 1
    # the true diameter is 112, since pi / (2 arccos 0.9999) ~ 111.07
    far = gr.GraphSpec(Fraction(9999, 10000))
    with pytest.raises(BoundExceededError):
        gr.diameter(far)
    with pytest.raises(BoundExceededError):
        gr.graph_distance(far, E1, E2)


def test_k3_witness_path_sums_products_over_one_generator(monkeypatch):
    """A k = 3 witness path at cos l = 4/5 between two rational points, as
    the geometry workload builds it, and its verification: every inner
    product and cross product of its points, which lie over a square root
    and a tower or compositum above it, is summed over a generator that
    already reaches the others, so dot never joins a new field."""
    from rotagraph import algebraic
    joins = []
    original = algebraic._compositum
    monkeypatch.setattr(algebraic, "_compositum", lambda *t: joins.append(t) or original(*t))
    p = ep.make_point(Fraction(20, 33), Fraction(-17, 33), Fraction(-20, 33))
    q = ep.make_point(Fraction(-20, 29), 0, Fraction(-21, 29))
    assert gr.graph_distance(SPEC45, p, q)[0] == 3
    path = gr.witness_path(SPEC45, p, q)
    assert gr.verify_path(SPEC45, path, p, q, 3)
    assert any(not c.is_rational for pt in path.points for c in pt.lift)
    assert joins == []


def test_k3_witness_path_maps_each_value_into_the_tower_once(monkeypatch):
    """The k = 3 path above and its verification map each value into the
    detour point's tower once: the step point's coordinates keep the image
    the detour's linear combination made, so the verifying inner product
    maps nothing again (10 compose_mod calls in all, where mapping afresh
    took 16).  The quadratic radicand of the detour's square root is
    isolated in closed form, with no trace (minimal_polynomial)."""
    from rotagraph import polys
    counts = {"compose_mod": 0, "minimal_polynomial": 0}
    for name in counts:
        monkeypatch.setattr(polys, name, (lambda name, f: lambda *args: (
            counts.__setitem__(name, counts[name] + 1) or f(*args)))(name, getattr(polys, name)))
    p = ep.make_point(Fraction(20, 33), Fraction(-17, 33), Fraction(-20, 33))
    q = ep.make_point(Fraction(-20, 29), 0, Fraction(-21, 29))
    path = gr.witness_path(SPEC45, p, q)
    assert gr.verify_path(SPEC45, path, p, q, 3)
    assert counts["compose_mod"] <= 10 and counts["minimal_polynomial"] == 0, counts
