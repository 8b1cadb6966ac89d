import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rotagraph import elliptic as ep
from rotagraph import isometry as iso
from rotagraph.algebraic import (
    AlgReal, EQUAL, add, compare, div, mul, neg, sqrt_nonneg, sub,
)
from rotagraph.errors import PreconditionError

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
    w = ep._vsub(x, y)
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
