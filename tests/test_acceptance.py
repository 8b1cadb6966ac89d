"""End-to-end acceptance checks, one printed PASS line per criterion.

Every exact claim is checked with zero tolerance; the one floating-point
comparison (the rotation-ladder simulation) is pinned at 1e-9.  Each
criterion enforces its own wall-clock budget.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from rotagraph import elliptic as ep
from rotagraph import finite as fn
from rotagraph import graph as gr
from rotagraph import isometry as im
from rotagraph.algebraic import (AlgReal, chebyshev_T, is_rational_angle,
                                 mul, sub, sqrt_nonneg, to_float)

COS45 = Fraction(4, 5)
E1 = ep.make_point(1, 0, 0)
E2 = ep.make_point(0, 1, 0)
E3 = ep.make_point(0, 0, 1)


def _report(num, label, start, budget):
    elapsed = time.monotonic() - start
    print(f"criterion {num} ({label}): PASS in {elapsed:.1f}s "
          f"(budget {budget}s)")
    assert elapsed < budget


def _random_subgroup(rng, degree):
    gens = [fn.Permutation(rng.sample(range(degree), degree))
            for _ in range(rng.randint(1, 3))]
    return fn.PermGroup(degree, gens)


def test_criterion_1_cauchy_frobenius_exactness():
    start = time.monotonic()
    rng = random.Random(101)
    for _ in range(100):
        g = _random_subgroup(rng, 6)
        cf = fn.cauchy_frobenius(g)
        assert cf == Fraction(fn.orbit_count(g))
    _report(1, "Cauchy-Frobenius exactness, 100 random subgroups of S6",
            start, 10)


def test_criterion_2_jordan_over_full_lattices():
    start = time.monotonic()
    checked = 0
    for n in (4, 5):
        for sub_ in fn.all_subgroups(fn.symmetric_group(n)):
            if sub_.is_transitive():
                w = fn.jordan_witness(sub_)
                assert w.fixed_count() == 0 and w in sub_.elements()
                checked += 1
    assert checked >= 2
    _report(2, f"derangements in all {checked} transitive subgroups of S4, S5",
            start, 60)


def test_criterion_3_census_to_seven_vertices():
    start = time.monotonic()
    rep = fn.census(7)
    assert all(rep["assertions"].values())
    # 1 + 2 + 4 + 11 + 34 + 156 + 1044 isomorphism classes (OEIS A000088)
    assert rep["counts"] == {"graphs": 1252, "transitive": 24,
                             "rotarily_transitive": 1, "unverified": 0}
    for g in rep["graphs"]:
        assert g["rotarily_transitive"] is (g["n"] == 1)
        assert g["unverified"] is False
    # K7 and the edgeless graph (Aut = S7) are certified in-line by the
    # derangement-free subgroup search
    assert sorted(len(g["edges"]) for g in rep["graphs"]
                  if g["aut_order"] == 5040) == [0, 21]
    # independent check through Jordan's theorem: every transitive subgroup
    # of S6 contains a derangement, so no subgroup acts rotarily
    transitive = [s for s in fn.all_subgroups(fn.symmetric_group(6))
                  if s.is_transitive()]
    assert len(transitive) > 0
    for sub_ in transitive:
        assert fn.jordan_witness(sub_).fixed_count() == 0
    _report(3, "rotary census on <= 7 vertices plus S6 certification",
            start, 300)


def test_criterion_4_equidistant_point_exactness():
    start = time.monotonic()
    rng = random.Random(44)
    done = 0
    while done < 100:
        p, q = ep.random_rational_point(rng), ep.random_rational_point(rng)
        if p == q:
            continue
        cos_r = Fraction(rng.randint(1, 9), 10)
        if not ep.two_ball_feasible(p, q, cos_r):
            continue
        z = ep.equidistant_point(p, q, cos_r)
        assert ep.dist_cos(z, p) == ep.as_dist_cos(cos_r)
        assert ep.dist_cos(z, q) == ep.as_dist_cos(cos_r)
        done += 1
    _report(4, "100 exact equidistant constructions", start, 60)


def test_criterion_5_diameter_with_witness_paths():
    start = time.monotonic()
    for cos_l, want in ((Fraction(4, 5), 3), (Fraction(7, 8), 4)):
        spec = gr.GraphSpec(cos_l)
        k, cert = gr.diameter(spec)
        assert k == want
        assert chebyshev_T(want, AlgReal(cos_l)).sign() <= 0
        assert chebyshev_T(want - 1, AlgReal(cos_l)).sign() > 0
        assert cert["upper"] == f"T_{want}(cos l) <= 0"
        path = gr.witness_path(spec, E1, E2)
        assert len(path) == want
        for a, b in zip(path.points, path.points[1:]):
            assert gr.is_edge(spec, a, b)
        assert gr.verify_path(spec, path, E1, E2, want)
    _report(5, "diameters 3 and 4 with exact certificates and paths",
            start, 30)


def _float_ladder_cos(c, n):
    # simulate the explicit rotation: axis o at distance l from y = e1,
    # rotation by the apex angle, in plain 64-bit floats
    import numpy as np
    s = math.sqrt(1 - c * c)
    o = np.array([c, s, 0.0])
    y = np.array([1.0, 0.0, 0.0])
    alpha = math.acos(c / (1 + c))
    k = o
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    rot = np.eye(3) + math.sin(alpha) * kx + (1 - math.cos(alpha)) * (kx @ kx)
    v = y
    for _ in range(n):
        v = rot @ v
    return abs(float(np.dot(v, y)))


def _ladder_endpoint(p, n):
    ca = ep.apex_angle_cos(COS45)
    sa = sqrt_nonneg(sub(AlgReal(1), mul(ca, ca)))
    return ep._frame_chain(E3, p, ca, sa, n)[n]


def test_criterion_6_ladder_simulation_witnesses_distinctness():
    start = time.monotonic()
    values = []
    for n in range(1, 11):
        exact = ep.ell_n_cos(COS45, n)
        approx = float(to_float(exact.value, 80))
        assert abs(approx - _float_ladder_cos(0.8, n)) < 1e-9
        values.append(exact.value)
    p = ep.random_point_at_distance(random.Random(66), E3, COS45)
    for n in range(1, 11):
        q = _ladder_endpoint(p, n)
        o, chain = ep.construct_ell_n_witness(p, q, COS45, n)
        assert chain[0] == p and chain[-1] == q and len(chain) == n + 1
        assert ep.verify_ell_n_witness(o, chain, COS45)
    for i in range(10):
        for j in range(i + 1, 10):
            assert values[i] != values[j]
    assert not is_rational_angle(ep.apex_angle_cos(COS45))
    _report(6, "ladder n <= 10: float oracle, witnesses, distinct cosines",
            start, 60)


def test_criterion_7_fixed_points():
    start = time.monotonic()
    for seed in range(100):
        m = im.random_rational_orthogonal(seed)
        p = im.fixed_point(m)
        assert im.apply(m, p) == p
    rng = random.Random(7)
    done = 0
    while done < 100:
        m = im.LinearMap([[rng.randint(-4, 4) for _ in range(3)]
                          for _ in range(3)])
        if m.det().sign() == 0:
            continue
        p = im.fixed_point(m)
        assert im.apply(m, p) == p
        done += 1
    _report(7, "200 exact eigenvector fixed points", start, 120)


def test_criterion_8_rational_angle_truth_table():
    start = time.monotonic()
    half = AlgReal(Fraction(1, 2))
    sqrt3_2 = sqrt_nonneg(AlgReal(Fraction(3, 4)))
    sqrt2_2 = sqrt_nonneg(half)
    for c in (AlgReal(1), sqrt3_2, sqrt2_2, half, AlgReal(0),
              AlgReal(Fraction(-1, 2)), AlgReal(-1)):
        assert is_rational_angle(c)
    for c in (Fraction(1, 3), Fraction(4, 9), Fraction(2, 5)):
        assert not is_rational_angle(AlgReal(c))
    _report(8, "rational-angle truth table", start, 10)


def test_criterion_9_edge_preservation():
    start = time.monotonic()
    rng = random.Random(99)
    pairs = []
    for _ in range(10):
        p = ep.random_rational_point(rng)
        pairs.append((p, ep.random_point_at_distance(rng, p, COS45)))
    for _ in range(10):
        p, q = ep.random_rational_point(rng), ep.random_rational_point(rng)
        pairs.append((p, q))
    for seed in range(50):
        m = im.random_rational_orthogonal(seed)
        assert im.preserves_edges_on_sample(m, COS45, pairs)
    _report(9, "biconditional edge preservation, 50 maps x 20 pairs",
            start, 180)


def test_criterion_10_conjugation_graph_diagnostics():
    start = time.monotonic()
    s3 = fn.FiniteGroup.from_permutations(
        [fn.Permutation.from_cycles("(0 1)", 3),
         fn.Permutation.from_cycles("(0 1 2)", 3)])
    s4 = fn.FiniteGroup.from_permutations(
        [fn.Permutation.from_cycles("(0 1)", 4),
         fn.Permutation.from_cycles("(0 1 2 3)", 4)])
    rot = fn.Permutation.from_cycles("(0 1 2 3)", 4)
    ref = fn.Permutation.from_cycles("(1 3)", 4)
    d4 = fn.FiniteGroup.from_permutations([rot, ref])
    q8 = fn.quaternion_group()
    checked = 0
    for grp in (s3, s4, d4, q8):
        for g1 in range(grp.order):
            if g1 == grp.identity:
                continue
            cyc = set(grp.cyclic_subgroup(g1))
            for g3 in range(grp.order):
                if g3 in cyc:
                    continue
                _, _, diag = fn.conjugation_graph(grp, g1, g3)
                assert diag["acts_by_automorphisms"]
                assert diag["transitive"]
                if diag["class_size"] >= 2:
                    assert not diag["by_rotations"]
                checked += 1
    assert checked > 100
    _report(10, f"conjugation-graph diagnostics on {checked} (g1, g3) pairs",
            start, 30)
