import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rotagraph import elliptic as ep
from rotagraph import expr
from rotagraph import isometry as iso
from rotagraph.algebraic import (
    AlgReal, EQUAL, add, combo, compare, div, mul, neg, sqrt_nonneg, sub,
)
from rotagraph.errors import InfeasibleError, PreconditionError

E1 = ep.make_point(1, 0, 0)
E2 = ep.make_point(0, 1, 0)
E3 = ep.make_point(0, 0, 1)


def test_is_orthogonal():
    assert iso.is_orthogonal(iso.identity())
    assert not iso.is_orthogonal(iso.LinearMap(((1, 0, 0), (0, 1, 0), (0, 0, 2))))
    r = iso.rotation_about(E3, Fraction(3, 5), Fraction(4, 5))
    assert iso.is_orthogonal(r)
    assert compare(r.det(), AlgReal(1)) == EQUAL


def test_rotation_about_with_irrational_sine():
    s65 = div(sqrt_nonneg(AlgReal(65)), AlgReal(9))
    r = iso.rotation_about(E3, Fraction(4, 9), s65)
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


def test_fixed_point_improper_rotation_with_irrational_entries():
    # reflection through the plane normal to the axis a, times the rotation
    # about a by pi/6: trace sqrt(3) - 1 is irrational, and the only real
    # eigenvalue is -1, on a itself
    a = (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))
    axis = ep.make_point(*a)
    reflect = iso.LinearMap([[int(i == j) - 2 * a[i] * a[j] for j in range(3)]
                             for i in range(3)])
    m = reflect @ iso.rotation_about(axis, div(sqrt_nonneg(AlgReal(3)), AlgReal(2)),
                                     Fraction(1, 2))
    assert not m.trace().is_rational
    p = iso.fixed_point(m)
    assert p == axis
    img = m.apply_lift(p.raw_lift)
    assert all(compare(x, neg(y)) == EQUAL for x, y in zip(img, p.raw_lift))


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


def test_random_rational_orthogonal_matches_literal_axis_matrices():
    """Rodrigues about a coordinate axis gives the textbook matrices."""
    literal = (lambda c, s: ((1, 0, 0), (0, c, -s), (0, s, c)),
               lambda c, s: ((c, 0, s), (0, 1, 0), (-s, 0, c)),
               lambda c, s: ((c, -s, 0), (s, c, 0), (0, 0, 1)))
    pairs = iso._pythagorean_pairs()
    for seed in range(60):
        rng = random.Random(seed)
        want = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        for axis in rng.sample((0, 1, 2), 3):
            c, s = rng.choice(pairs)
            if rng.random() < 0.5:
                s = -s
            r = literal[axis](c, s)
            want = [[sum(r[i][k] * want[k][j] for k in range(3)) for j in range(3)]
                    for i in range(3)]
        got = iso.random_rational_orthogonal(seed)
        assert [[v.as_rational() for v in row] for row in got.rows] == want, seed


def _python(code):
    """stdout of `code` run in a fresh interpreter on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_elliptic_imports_without_isometry():
    loaded = ast.literal_eval(
        _python("import sys, rotagraph.elliptic; print(sorted(sys.modules))"))
    assert "rotagraph.elliptic" in loaded
    assert "rotagraph.isometry" not in loaded


# The heavy imports a cold call does without: sympy on the first
# factorisation no certificate spared, mpmath for --approx decimals.  The
# finite-group module needs neither, so the CLI imports it at the top.
DEFERRED_IMPORTS = {
    ("polys", "factor_int", "import sympy"),
    ("cli", "_approx_str", "import mpmath"),
}


def test_only_deferred_imports_inside_functions():
    found = set()
    for path in sorted(Path(iso.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.stem, fn.name, ast.unparse(node)) for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))
                          or (isinstance(node, ast.Name) and node.id == "__import__")}
    assert found == DEFERRED_IMPORTS


def test_no_private_polys_names_outside_polys():
    """Other modules use polys through its public functions only."""
    found = set()
    for path in sorted(Path(iso.__file__).parent.glob("*.py")):
        if path.stem == "polys":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "polys" and node.attr.startswith("_"):
                found.add((path.stem, node.attr))
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("polys"):
                found |= {(path.stem, a.name) for a in node.names if a.name.startswith("_")}
    assert found == set()


HEAVY = ("sympy", "numpy", "mpmath")

COLD_IMPORT = """
import sys
import rotagraph.cli
print(sorted(m for m in {heavy!r} if m in sys.modules))
"""

# equidistant point, edge preservation, an integer-matrix fixed point and a
# witness path, in-process: certificates, no factorisation
GEOMETRY_RUN = """
import sys
from fractions import Fraction as F
from rotagraph import elliptic as ep, graph as gr, isometry as iso
from rotagraph.algebraic import AlgReal, sqrt_nonneg
cos_l = sqrt_nonneg(AlgReal(F(3, 4)))
p, q = ep.make_point(F(2, 3), F(1, 3), F(2, 3)), ep.make_point(F(2, 7), F(-3, 7), F(6, 7))
z = ep.equidistant_point(p, q, cos_l)
assert ep.dist_cos(z, p) == cos_l and ep.dist_cos(z, q) == cos_l
m = iso.random_rational_orthogonal(3)
e = ep.geodesic_step(p, q, F(4, 5))
assert iso.preserves_edges_on_sample(m, F(4, 5), [(p, e), (p, q)])
a = iso.LinearMap(((1, 2, 0), (0, 1, 3), (1, 0, 1)))
x = iso.fixed_point(a)
assert iso.apply(a, x) == x
spec = gr.GraphSpec(F(4, 5))
s, t = ep.make_point(F(2, 3), F(1, 3), F(-2, 3)), ep.make_point(F(2, 11), F(6, 11), F(9, 11))
assert gr.verify_path(spec, gr.witness_path(spec, s, t), s, t, 3)
print("sympy" in sys.modules)
"""


# one call of each finite command shape the benchmark's mix makes, plus a
# group given by its table, in one process; stdout holds their answers
FINITE_RUN = """
import io, json, sys
from contextlib import redirect_stdout
import rotagraph.cli as cli
calls = [
    ["finite", "cf", "--group", "(0 1 2 3 4);(0 1)"],
    ["finite", "jordan", "--group", "(0 1 2 3 4);(0 1)"],
    ["finite", "subgroups", "--group", "(0 1 2 3 4);(0 1)"],
    ["finite", "census", "--n-max", "5"],
    ["finite", "conjgraph", "--group", "(0 1 2);(0 1)", "--g1", "1", "--g3", "2"],
    ["finite", "conjgraph", "--table", json.dumps({table!r}), "--g1", "2", "--g3", "4"],
]
out = io.StringIO()
with redirect_stdout(out):
    for argv in calls:
        cli.main(argv)
answers = [json.loads(line) for line in out.getvalue().splitlines()]
assert not any("error" in a for a in answers), answers
print(sorted(m for m in {heavy!r} if m in sys.modules))
"""

Q8_TABLE = [[0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6],
            [2, 3, 1, 0, 6, 7, 5, 4], [3, 2, 0, 1, 7, 6, 4, 5],
            [4, 5, 7, 6, 1, 0, 2, 3], [5, 4, 6, 7, 0, 1, 3, 2],
            [6, 7, 4, 5, 3, 2, 1, 0], [7, 6, 5, 4, 2, 3, 0, 1]]


def test_cold_cli_import_loads_no_heavy_module():
    assert _python(COLD_IMPORT.format(heavy=HEAVY)) == "[]"


def test_finite_commands_load_no_heavy_module():
    assert _python(FINITE_RUN.format(heavy=HEAVY, table=Q8_TABLE)) == "[]"


def test_geometry_never_loads_sympy():
    assert _python(GEOMETRY_RUN) == "False"


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
    m = iso.rotation_about(E3, Fraction(4, 9),
                           div(sqrt_nonneg(AlgReal(65)), AlgReal(9)))
    m2 = iso.matrix_from_json(iso.matrix_to_json(m))
    assert all(compare(x, y) == EQUAL
               for ra, rb in zip(m.rows, m2.rows) for x, y in zip(ra, rb))


# The matrix algebra LinearMap and orthogonal_sending had before they were
# built from elliptic's vector helpers, kept as oracles for them.

def _cofactor_det(r):
    return add(
        sub(
            mul(r[0][0], sub(mul(r[1][1], r[2][2]), mul(r[1][2], r[2][1]))),
            mul(r[0][1], sub(mul(r[1][0], r[2][2]), mul(r[1][2], r[2][0]))),
        ),
        mul(r[0][2], sub(mul(r[1][0], r[2][1]), mul(r[1][1], r[2][0]))),
    )


def _triple_loop_product(a, b):
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            s = AlgReal(0)
            for k in range(3):
                s = add(s, mul(a[i][k], b[k][j]))
            row.append(s)
        out.append(row)
    return out


def _entrywise_householder(p, q):
    x, y, _ = ep._lifts_nonneg(p, q)
    w = combo((1, -1), (x, y))
    n2 = ep._dot(w, w)
    return [[add(neg(div(mul(mul(2, w[i]), w[j]), n2)), AlgReal(int(i == j)))
             for j in range(3)] for i in range(3)]


def _same_rows(got, want):
    return all(compare(x, y) == EQUAL for rg, rw in zip(got, want)
               for x, y in zip(rg, rw))


S3 = sqrt_nonneg(AlgReal(3))


def _seeded_matrices(seed):
    """Rational matrices, then matrices over Q(sqrt 3)."""
    rng = random.Random(seed)
    for _ in range(6):
        yield iso.LinearMap([[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                              for _ in range(3)] for _ in range(3)])
    for _ in range(6):
        yield iso.LinearMap([[add(rng.randint(-4, 4), mul(rng.randint(-4, 4), S3))
                              for _ in range(3)] for _ in range(3)])


def test_det_matches_cofactor_expansion():
    for m in _seeded_matrices(31):
        assert compare(m.det(), _cofactor_det(m.rows)) == EQUAL


def test_product_matches_triple_loop():
    ms = list(_seeded_matrices(37))
    for a, b in zip(ms, ms[1:] + ms[:1]):
        assert _same_rows((a @ b).rows, _triple_loop_product(a.rows, b.rows))


def test_orthogonal_sending_matches_entrywise_householder():
    rng = random.Random(41)
    turn = iso.rotation_about(ep.make_point(2, 3, 6), div(S3, AlgReal(2)),
                              Fraction(1, 2))
    for k in range(8):
        p, q = ep.random_rational_point(rng), ep.random_rational_point(rng)
        if k % 2:   # unit lifts over Q(sqrt 3)
            p, q = iso.apply(turn, p), iso.apply(turn, q)
        assert _same_rows(iso.orthogonal_sending(p, q).rows,
                          _entrywise_householder(p, q))


# The add/mul chains that algebraic.combo and dot replaced in L2 and L3,
# kept as oracles: each new form must give the same values, printed alike.

def _chain_dot(x, y):
    total = mul(x[0], y[0])
    for a, b in zip(x[1:], y[1:]):
        total = add(total, mul(a, b))
    return total


def _chain_cross(x, y):
    return (sub(mul(x[1], y[2]), mul(x[2], y[1])),
            sub(mul(x[2], y[0]), mul(x[0], y[2])),
            sub(mul(x[0], y[1]), mul(x[1], y[0])))


def _scale(v, s):
    return tuple(mul(c, s) for c in v)


def _vadd(x, y):
    return tuple(add(a, b) for a, b in zip(x, y))


def _chain_rotate(a, v, c, s):
    return _vadd(_vadd(_scale(v, c), _scale(_chain_cross(a, v), s)),
                 _scale(a, mul(sub(AlgReal(1), c), _chain_dot(a, v))))


def _chain_along(x, y, s, c):
    one = AlgReal(1)
    beta = sqrt_nonneg(div(sub(one, mul(c, c)), sub(one, mul(s, s))))
    return ep._unit_canonical(_vadd(_scale(x, sub(c, mul(beta, s))), _scale(y, beta)))


def _chain_circle_intersect(p, a, q, b):
    """circle_intersect's point for distinct centres, or None where the
    circles miss."""
    one = AlgReal(1)
    x, y, s = ep._lifts_nonneg(p, q)
    inv = div(one, sub(one, mul(s, s)))
    for b in (b, neg(b)):
        alpha = mul(sub(a, mul(b, s)), inv)
        beta = mul(sub(b, mul(a, s)), inv)
        gamma2 = mul(sub(sub(one, mul(alpha, a)), mul(beta, b)), inv)
        if gamma2.sign() < 0:
            continue
        n = ep._canonical_sign(_chain_cross(x, y))
        return ep._unit_canonical(_vadd(_vadd(_scale(x, alpha), _scale(y, beta)),
                                        _scale(n, sqrt_nonneg(gamma2))))
    return None


def _chain_frame(o, p, cos_a, sin_a, n):
    x = p.lift
    chain = [ep._unit_canonical(x)]
    ci, si = cos_a, sin_a
    for _ in range(n):
        chain.append(ep._unit_canonical(_chain_rotate(o.lift, x, ci, si)))
        ci, si = sub(mul(ci, cos_a), mul(si, sin_a)), add(mul(si, cos_a), mul(ci, sin_a))
    return chain


def _chain_minor2_sum(r):
    total = AlgReal(0)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        total = add(total, sub(mul(r[i][i], r[j][j]), mul(r[i][j], r[j][i])))
    return total


def _same_values(got, want):
    """Equal values that also print alike."""
    return all(compare(x, y) == EQUAL and expr.to_expr(x) == expr.to_expr(y)
               for x, y in zip(got, want, strict=True))


def _same_points(got, want):
    return _same_values(got.lift, want.lift)


def _seeded_point_pairs(seed, count):
    """Distinct pairs of points with rational unit lifts, then with unit
    lifts over Q(sqrt 3)."""
    rng = random.Random(seed)
    turn = iso.rotation_about(ep.make_point(2, 3, 6), div(S3, AlgReal(2)),
                              Fraction(1, 2))
    while count:
        p, q = ep.random_rational_point(rng), ep.random_rational_point(rng)
        if p == q:
            continue
        if count % 2:
            p, q = iso.apply(turn, p), iso.apply(turn, q)
        count -= 1
        yield rng, p, q


RADII = tuple(AlgReal(Fraction(v)) for v in ("1/2", "3/5", "4/5", "9/10"))


def test_rotate_matches_rodrigues_chain():
    for m in _seeded_matrices(43):
        a, v, (c, s, _) = m.rows
        assert _same_values(ep._rotate(a, v, c, s), _chain_rotate(a, v, c, s))


def test_minor2_sum_matches_the_loop():
    for m in _seeded_matrices(47):
        assert _same_values((iso._minor2_sum(m),), (_chain_minor2_sum(m.rows),))


def test_circle_intersect_and_along_match_their_chains():
    met = missed = 0
    tight = AlgReal(Fraction(99, 100))     # circles this small mostly miss
    for rng, p, q in _seeded_point_pairs(53, 8):
        a = rng.choice(RADII)
        for b in (rng.choice(RADII), tight):
            want = _chain_circle_intersect(p, a, q, b)
            if want is None:
                missed += 1
                with pytest.raises(InfeasibleError):
                    ep.circle_intersect(p, a, q, b)
            else:
                met += 1
                assert _same_points(ep.circle_intersect(p, a, q, b), want)
        x, y, s = ep._lifts_nonneg(p, q)
        assert _same_points(ep._along(x, y, s, a), _chain_along(x, y, s, a))
    assert met and missed


def test_frame_chain_matches_angle_addition_chain():
    angles = ((AlgReal(Fraction(3, 5)), AlgReal(Fraction(-4, 5))),
              (AlgReal(Fraction(1, 2)), div(S3, AlgReal(2))),
              (AlgReal(Fraction(4, 9)), div(sqrt_nonneg(AlgReal(65)), AlgReal(9))))
    for (_, o, p), (ca, sa) in zip(_seeded_point_pairs(59, 3), angles):
        got, want = ep._frame_chain(o, p, ca, sa, 3), _chain_frame(o, p, ca, sa, 3)
        assert all(map(_same_points, got, want))


def test_linear_combinations_take_no_add_chain(monkeypatch):
    """Each L2/L3 sum of two or more products is one dot: the constructions
    and _minor2_sum run with elliptic's and isometry's add patched to
    raise."""
    (_, p, q), (_, o, r) = _seeded_point_pairs(61, 2)
    x, y, s = ep._lifts_nonneg(p, q)
    c, sn = AlgReal(Fraction(3, 5)), AlgReal(Fraction(4, 5))
    m = next(_seeded_matrices(67))

    def chain_call(*_):
        raise AssertionError("a linear combination took the add chain")

    monkeypatch.setattr(ep, "add", chain_call)
    monkeypatch.setattr(iso, "add", chain_call)
    ep._rotate(x, y, c, sn)
    ep._along(x, y, s, c)
    ep.circle_intersect(p, Fraction(1, 2), q, Fraction(1, 2))
    ep._frame_chain(o, r, c, sn, 2)
    iso.orthogonal_sending(p, q)
    iso._minor2_sum(m)


def test_no_unused_imports_or_orphan_private_functions():
    """Every name a module imports at its top level is used there or listed
    in its __all__, and every module-level private function is referenced
    somewhere in the package."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(iso.__file__).parent.glob("*.py"))}
    used = {stem: {node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))}
            for stem, tree in trees.items()}
    unused, orphans = set(), set()
    for stem, tree in trees.items():
        exported = {name for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for name in ast.literal_eval(node.value)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused |= {(stem, name) for name in
                           (a.asname or a.name.split(".")[0] for a in node.names)
                           if name not in used[stem] | exported}
            elif isinstance(node, ast.FunctionDef) and node.name.startswith("_") \
                    and not any(node.name in names for names in used.values()):
                orphans.add((stem, node.name))
    assert unused == set()
    assert orphans == set()
