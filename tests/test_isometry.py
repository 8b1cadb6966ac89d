import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sympy_oracle as so
from rotagraph import algebraic, expr
from rotagraph import elliptic as ep
from rotagraph import isometry as iso
from rotagraph.algebraic import AlgReal, EQUAL, add, compare, div, mul, neg, sqrt_nonneg, sub
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


def test_fixed_points_of_diagonal_and_triangular_maps_need_no_factorisation(monkeypatch):
    """The characteristic cubic of diag(sqrt 2, 2, 3) has the norm
    (x^2 - 2)(x - 2)^2(x - 3)^2, that of [[2,0,0],[0,3,0],[0,1,5]] is
    (x - 2)(x - 3)(x - 5): their rational roots, read off one isolation,
    leave x^2 - 2 and nothing, so neither is factorised; each fixed point
    is e1, for the smallest real eigenvalue."""
    from rotagraph import polys
    calls = []
    monkeypatch.setattr(polys, "factor_int", lambda c: calls.append(c))
    for rows in (((sqrt_nonneg(2), 0, 0), (0, 2, 0), (0, 0, 3)), ((2, 0, 0), (0, 3, 0), (0, 1, 5))):
        m = iso.LinearMap(rows)
        p = iso.fixed_point(m)
        assert p == E1 and iso.apply(m, p) == p
    assert calls == []


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


# The imports a cold call does without until it needs them: sympy on the
# first factorisation no certificate spared, mpmath for --approx decimals,
# Fraction for the one rational of the finite layer, json for the CLI's JSON
# inputs (its output has a writer of its own), the kernel behind the
# package's names, and the layers of the CLI, which a call imports once
# argv has parsed, those of its own module alone (test_cli_call_import_sets).
DEFERRED_IMPORTS = {
    ("polys", "factor_int", "import sympy"),
    ("cli", "_approx_str", "import mpmath"),
    ("cli", "_json", "import json"),
    ("finite", "cauchy_frobenius", "from fractions import Fraction"),
    ("__init__", "__getattr__", "from . import algebraic"),
    ("cli", "_import_layers", "from . import finite"),
    ("cli", "_import_layers", "from . import algebraic, expr"),
    ("cli", "_import_layers", "from . import elliptic"),
    ("cli", "_import_layers", "from . import isometry"),
    ("cli", "_import_layers", "from . import graph"),
    ("cli", "_build_parser", "import argparse"),
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


WATCHED = ("argparse", "fractions", "json", "rotagraph.algebraic", "rotagraph.elliptic",
           "rotagraph.expr", "rotagraph.finite", "rotagraph.graph", "rotagraph.isometry",
           "rotagraph.polys", "signal")

CLI_CALL = """
import contextlib, io, sys
from rotagraph import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main({argv!r})
    except SystemExit as e:
        code = e.code
print(code, sorted(m for m in {watched!r} if m in sys.modules))
"""

KERNEL = {"fractions", "rotagraph.algebraic", "rotagraph.expr", "rotagraph.polys"}


def _call_imports(argv):
    """The exit code of one CLI call in a fresh interpreter, and the modules
    of WATCHED loaded once it returned."""
    code, loaded = _python(CLI_CALL.format(argv=argv, watched=WATCHED)).split(" ", 1)
    return int(code), set(ast.literal_eval(loaded))


def test_cli_call_import_sets():
    """Help at each level and a usage error load argparse and no layer; an
    answered call loads no argparse, a finite one finite and, for its
    average, fractions, and the other modules the kernel and their own
    layers only.  No call loads signal, and only a call with JSON input
    (a matrix, a graph, a group table, a point) loads json."""
    group = ["--group", "(0 1 2 3);(0 1)"]
    c4 = '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}'
    q8 = str(Q8_TABLE)
    for argv, want in (
            (["--help"], (0, {"argparse"})),
            (["finite", "--help"], (0, {"argparse"})),
            (["finite", "cf", "--help"], (0, {"argparse"})),
            (["finite", "bogus"], (2, {"argparse"})),
            (["finite", "jordan", *group], (0, {"rotagraph.finite"})),
            (["finite", "subgroups", *group], (0, {"rotagraph.finite"})),
            (["finite", "census", "--n-max", "4"], (0, {"rotagraph.finite"})),
            (["finite", "conjgraph", "--group", "(0 1 2);(0 1)", "--g1", "1", "--g3", "2"],
             (0, {"rotagraph.finite"})),
            (["finite", "cf", *group], (0, {"rotagraph.finite", "fractions"})),
            (["field", "eval", "--expr", "sqrt(2)"], (0, KERNEL)),
            (["plane", "dist", "--p", "1,0,0", "--q", "4/5,3/5,0"],
             (0, KERNEL | {"rotagraph.elliptic"})),
            (["field", "eval", "--expr", "1/0", "--pretty"], (1, KERNEL)),
            (["plane", "dist", "--p", '{"x": 1, "y": 0, "z": 0}', "--q", "0,1,0"],
             (0, KERNEL | {"rotagraph.elliptic", "json"})),
            (["iso", "fixed-point", "--matrix", "[[0,1,0],[0,0,1],[1,0,0]]"],
             (0, KERNEL | {"rotagraph.elliptic", "rotagraph.isometry", "json"})),
            (["finite", "automorphisms", "--graph", c4], (0, {"rotagraph.finite", "json"})),
            (["finite", "conjgraph", "--table", q8, "--g1", "2", "--g3", "4"],
             (0, {"rotagraph.finite", "json"}))):
        assert _call_imports(argv) == want, argv


EXPORTS = """
import sys
import rotagraph
assert "rotagraph.algebraic" not in sys.modules
try:
    rotagraph.nope
except AttributeError:
    pass
else:
    raise AssertionError("rotagraph.nope")
assert "rotagraph.algebraic" not in sys.modules
names = {}
exec("from rotagraph import *", names)
del names["__builtins__"]
from rotagraph import algebraic, elliptic
assert sorted(names) == sorted(rotagraph.__all__), sorted(names)
assert all(names[n] is getattr(algebraic, n) for n in rotagraph.__all__)
assert elliptic.__name__ == "rotagraph.elliptic"
print("ok")
"""


def test_package_exports_the_kernel_names_lazily():
    """``from rotagraph import *`` binds exactly __all__, each name the
    kernel's own object; an unknown name is an AttributeError, and
    ``import rotagraph`` alone loads no kernel."""
    assert _python(EXPORTS) == "ok"


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


# LinearMap's product and determinant, _minor2_sum, orthogonal_sending and
# the L2 constructions against the same constructions in sympy.

S3 = sqrt_nonneg(AlgReal(3))
#: a rotation over Q(sqrt 3), which turns rational unit lifts into lifts over it
TURN = iso.rotation_about(ep.make_point(2, 3, 6), div(S3, AlgReal(2)), Fraction(1, 2))


def _seeded_matrices(seed):
    """Rational matrices, then matrices over Q(sqrt 3)."""
    rng = random.Random(seed)
    for _ in range(3):
        yield iso.LinearMap([[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                              for _ in range(3)] for _ in range(3)])
    for _ in range(3):
        yield iso.LinearMap([[add(rng.randint(-4, 4), mul(rng.randint(-4, 4), S3))
                              for _ in range(3)] for _ in range(3)])


def test_det_matches_cofactor_expansion():
    """det, one dot of a row with a cross product, is sympy's det."""
    for m in _seeded_matrices(31):
        assert so.same_value(m.det(), so.matrix(m).det())


def test_product_matches_triple_loop():
    """@, one dot per entry, is sympy's matrix product."""
    ms = list(_seeded_matrices(37))
    for a, b in zip(ms, ms[1:] + ms[:1]):
        assert so.same_matrix(a @ b, so.matrix(a) * so.matrix(b))


def test_orthogonal_sending_matches_entrywise_householder():
    """orthogonal_sending's rows, one combo each, are the entries of the
    Householder reflection I - 2 w w^T / <w, w>, for rational unit lifts
    and unit lifts over Q(sqrt 3)."""
    rng = random.Random(41)
    for k in range(4):
        p, q = ep.random_rational_point(rng), ep.random_rational_point(rng)
        if k % 2:   # unit lifts over Q(sqrt 3)
            p, q = iso.apply(TURN, p), iso.apply(TURN, q)
        assert so.same_matrix(iso.orthogonal_sending(p, q),
                              so.orthogonal_sending(so.point(p), so.point(q)))


def _seeded_point_pairs(seed, count):
    """Distinct pairs of points with rational unit lifts, then with unit
    lifts over Q(sqrt 3)."""
    rng = random.Random(seed)
    while count:
        p, q = ep.random_rational_point(rng), ep.random_rational_point(rng)
        if p == q:
            continue
        if count % 2:
            p, q = iso.apply(TURN, p), iso.apply(TURN, q)
        count -= 1
        yield rng, p, q


RADII = tuple(AlgReal(Fraction(v)) for v in ("1/2", "3/5", "4/5", "9/10"))


def test_rotate_matches_rodrigues_chain():
    """_rotate, one combo, is Rodrigues' matrix c I + s [a]_x + (1 - c) a a^T
    applied to v."""
    for m in _seeded_matrices(43):
        a, v, (c, s, _) = m.rows
        assert so.same_values(ep._rotate(a, v, c, s),
                              so.rotation(so.vector(a), so.value(c), so.value(s)) * so.vector(v))


def test_minor2_sum_matches_the_loop():
    """_minor2_sum, one dot, is (tr(m)^2 - tr(m^2)) / 2."""
    for m in _seeded_matrices(47):
        assert so.same_value(iso._minor2_sum(m), so.minor2_sum(so.matrix(m)))


S2 = sqrt_nonneg(AlgReal(2))
#: conjugation by diag(sqrt 2, 1, 1), which keeps a rotation's spectrum
#: and makes it no longer orthogonal
CONJ = (iso.LinearMap(((S2, 0, 0), (0, 1, 0), (0, 0, 1))),
        iso.LinearMap(((div(1, S2), 0, 0), (0, 1, 0), (0, 0, 1))))


def _maps_over_quadratic_fields(seed, count):
    """(checked, m): upper-triangular maps whose diagonals lie in Q(sqrt 2)
    or Q(sqrt 3), general maps over Q(sqrt 2), rotations over Q(sqrt 3) by
    pi/6 or pi/3 conjugated by diag(sqrt 2, 1, 1), and improper maps, the
    negatives of the rotations and their conjugates; checked marks the
    non-orthogonal maps whose entries sympy handles in radicals (degree 2
    at most): the triangular ones and conjugates about e2 and e3."""
    rng = random.Random(seed)
    for k in range(count):
        kind = k % 4
        if kind == 0:
            root = rng.choice((S2, S3))
            yield True, iso.LinearMap([
                [add(rng.randint(-3, 3), mul(rng.choice((-2, -1, 1, 2)), root))
                 if i == j else rng.randint(-2, 2) * (j > i) for j in range(3)]
                for i in range(3)])
        elif kind == 1:
            yield False, iso.LinearMap([[add(rng.randint(-3, 3), mul(rng.randint(-2, 2), S2))
                                         for _ in range(3)] for _ in range(3)])
        else:
            axis = rng.choice((E2, E3, ep.random_rational_point(rng)))
            c, s = rng.choice(((div(S3, AlgReal(2)), Fraction(1, 2)),
                               (Fraction(1, 2), div(S3, AlgReal(2)))))
            r = iso.rotation_about(axis, c, neg(s) if rng.random() < 0.5 else s)
            if rng.random() < 0.5:
                r = CONJ[0] @ r @ CONJ[1]
            if kind == 3:
                r = iso.LinearMap([[neg(v) for v in row] for row in r.rows])
            yield axis in (E2, E3) and not iso.is_orthogonal(r), r


def _eigenvalue(m, p):
    """lam with m p = lam p, read off p's first nonzero coordinate."""
    i = next(i for i, v in enumerate(p.raw_lift) if v.sign())
    return div(m.apply_lift(p.raw_lift)[i], p.raw_lift[i])


def test_fixed_points_of_maps_over_quadratic_fields():
    """fixed_point fixes the point it gives for every drawn map; on the
    checked draws (see _maps_over_quadratic_fields) the eigenvalue it used,
    read off m p = lam p, is sympy's smallest real eigenvalue of the map."""
    checked = 0
    for check, m in _maps_over_quadratic_fields(71, 24):
        if m.det().sign() == 0:
            continue
        p = iso.fixed_point(m)
        assert iso.apply(m, p) == p
        if check:
            real = [e for e in so.matrix(m).eigenvals() if e.is_real]
            assert so.same_value(_eigenvalue(m, p), min(real, key=float))
            checked += 1
    assert checked >= 6


def test_fixed_points_read_from_gcds_over_the_field(monkeypatch):
    """The roots a cubic over Q(theta) shares with an irreducible factor of
    its norm come from their gcd over Q(theta): a linear gcd, read over
    theta with no compositum, for diag(N_k, 1, 2), N_k the k-deep
    sqrt(2 + ...) of degree 2^k, whose norm has degree 3 * 2^k (eigenvalue
    1, e2, as the +-1 try gave before the norm); a quadratic one, by the
    quadratic formula, for the companion blocks of x^2 -+ sqrt 2 x - 1,
    whose smallest eigenvalue is (+-sqrt 2 - sqrt 6) / 2."""
    def unreachable(*args):
        raise AssertionError("joined a field")

    with monkeypatch.context() as patched:
        patched.setattr(algebraic, "_compositum", unreachable)
        for k in (4, 5):
            nk = expr.parse("sqrt(2+" * (k - 1) + "sqrt(2)" + ")" * (k - 1))
            assert iso.fixed_point(iso.LinearMap(((nk, 0, 0), (0, 1, 0), (0, 0, 2)))) == E2
    s6 = sqrt_nonneg(AlgReal(6))
    for sign in (1, -1):
        m = iso.LinearMap(((1, 0, 0), (0, 0, 1), (0, 1, mul(sign, S2))))
        p = iso.fixed_point(m)
        assert iso.apply(m, p) == p
        assert compare(_eigenvalue(m, p), div(sub(mul(sign, S2), s6), 2)) == EQUAL


def test_circle_intersect_and_along_match_their_chains():
    """circle_intersect's point, or its InfeasibleError where the circles
    miss, and _along's point are sympy's closed forms of them."""
    met = missed = 0
    tight = AlgReal(Fraction(99, 100))     # circles this small mostly miss
    for rng, p, q in _seeded_point_pairs(53, 4):
        x, y = so.point(p), so.point(q)
        a = rng.choice(RADII)
        for b in (rng.choice(RADII), tight):
            want = so.circle_intersect(x, so.value(a), y, so.value(b))
            if want is None:
                missed += 1
                with pytest.raises(InfeasibleError):
                    ep.circle_intersect(p, a, q, b)
            else:
                met += 1
                assert so.same_point(ep.circle_intersect(p, a, q, b), want)
        xs, ys, s = ep._lifts_nonneg(p, q)
        assert so.same_point(ep._along(xs, ys, s, a), so.geodesic_step(x, y, so.value(a)))
    assert met and missed


def test_frame_chain_matches_angle_addition_chain():
    """_frame_chain's points, each turned from p by the angle i*a through
    angle addition, are the powers R^i p of sympy's rotation matrix."""
    angles = ((AlgReal(Fraction(3, 5)), AlgReal(Fraction(-4, 5))),
              (AlgReal(Fraction(1, 2)), div(S3, AlgReal(2))),
              (AlgReal(Fraction(4, 9)), div(sqrt_nonneg(AlgReal(65)), AlgReal(9))))
    for (_, o, p), (ca, sa) in zip(_seeded_point_pairs(59, 3), angles):
        want = so.frame_chain(so.point(o), so.point(p), so.value(ca), so.value(sa), 2)
        assert all(map(so.same_point, ep._frame_chain(o, p, ca, sa, 2), want))


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


def test_no_code_that_the_process_exit_skips():
    """A CLI process ends by os._exit (cli.run), which runs no atexit
    handler, weakref finalizer or __del__: the package has none of them."""
    found = set()
    for path in sorted(Path(iso.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {(path.stem, a.name) for a in node.names if a.name == "atexit"}
            elif isinstance(node, ast.ImportFrom):
                if node.module == "atexit" or (node.module == "weakref" and any(
                        a.name == "finalize" for a in node.names)):
                    found.add((path.stem, node.module))
            elif isinstance(node, ast.Attribute) and node.attr == "finalize" \
                    and getattr(node.value, "id", None) == "weakref":
                found.add((path.stem, "weakref.finalize"))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == "__del__":
                found.add((path.stem, "__del__"))
    assert found == set()


# module functions that Python itself calls (PEP 562), so nothing names them
MODULE_HOOKS = {"__getattr__"}


def test_no_unused_imports_or_orphan_private_functions():
    """Every name a module imports at its top level is used there or listed
    in its __all__, every module-level private function but a module hook
    is referenced somewhere in the package, and so is every public function
    of polys, which serves the package only: one that tests alone call is
    dead code."""
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
                    and node.name not in MODULE_HOOKS \
                    and not any(node.name in names for names in used.values()):
                orphans.add((stem, node.name))
    orphans |= {("polys", node.name) for node in trees["polys"].body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and not any(node.name in names for names in used.values())}
    assert unused == set()
    assert orphans == set()
