"""Golden CLI transcripts: exact stdout and exit code of fixed calls.

Each call runs in-process through `cli.main`, plain and with `--approx 53`,
and must print byte for byte what `cli_golden.json` records.  The calls
cover the geometry subcommands (distances, equidistant points, geodesic
steps, ladder cosines and witnesses, fixed points, orthogonality checks,
edge sampling, edges, graph paths, distances, diameters, validation and
the choice of cos l for a diameter), including their error exits, and the
field subcommands (same-field and cross-field arithmetic, comparisons,
roots, rational angles), so a refactor of the geometry or the kernel
cannot change what users see without failing here.  The `finite` calls
(orbit counts, derangements, subgroup lattices, automorphisms, rotary
checks, conjugation graphs, the census) print no algebraic numbers, so
they run plain only.  So do the `--pretty` calls (an answer with nested
objects and empty lists, one with decimals, a domain error) and the parse
errors whose details carry quotes, backslashes, a control character and
non-ASCII text, which pin the escapes of the JSON writer.

The transcripts that call sympy to factorise are listed too, so a kernel
change that sends another one to sympy fails here.

After a deliberate change of output, re-record with
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import contextlib
import io
import json
import time
from pathlib import Path

import sympy_oracle as so
from rotagraph import cli, expr, polys

GOLDEN = Path(__file__).with_name("cli_golden.json")

ROT = json.dumps([["1/3", "2/3", "2/3"], ["2/3", "1/3", "-2/3"],
                  ["-2/3", "2/3", "-1/3"]])
ROT2 = json.dumps([["-1/9", "-4/9", "8/9"], ["8/9", "-4/9", "1/9"],
                   ["4/9", "7/9", "4/9"]])
# the rotation about (1, 2, 2) by pi/6 conjugated by diag(sqrt 2, 1, 1)
TURN_CONJ = json.dumps([
    ["(1+4*sqrt(3))/9", "-sqrt(2)*(1+sqrt(3))/9", "sqrt(2)*(5-sqrt(3))/9"],
    ["(5-sqrt(3))/(9*sqrt(2))", "(8+5*sqrt(3))/18", "(5-4*sqrt(3))/18"],
    ["-(1+sqrt(3))/(9*sqrt(2))", "(11-4*sqrt(3))/18", "(8+5*sqrt(3))/18"]])
# p and its images under the rotation about e3 by the apex angle of
# cos l = 4/5 (cos a = 4/9, sin a = sqrt(65)/9): d(p, q_n) = l_n
P0 = "3/5,0,4/5"
Q1 = "4/15,sqrt(65)/15,4/5"
Q2 = "-49/135,8*sqrt(65)/135,4/5"
Q3 = "-716/1215,-17*sqrt(65)/1215,4/5"

CALLS = [
    ["plane", "dist", "--p", "1,0,0", "--q", "4/5,3/5,0"],
    ["plane", "dist", "--p", "1,2,2", "--q", "0,1,1"],
    ["plane", "equidistant", "--p", "1,0,0", "--q", "0,1,0", "--cos-l", "3/5"],
    ["plane", "equidistant", "--p", "1,1,0", "--q", "1,2,2", "--cos-l", "4/5"],
    ["plane", "equidistant", "--p", "1,0,0", "--q", "0,1,0", "--cos-l", "9/10"],
    ["plane", "equidistant", "--p", "1,0,0", "--q=-2,0,0", "--cos-l", "4/5"],
    ["plane", "equidistant", "--p", "1,0,0", "--q", "0,1,0", "--cos-l", "1"],
    # over two quadratic fields: sqrt 3 and the circle's radicand
    ["plane", "equidistant", "--p", "1,0,0", "--q", "2,1,2", "--cos-l", "sqrt(3)/2"],
    ["plane", "step", "--p", "1,0,0", "--q", "0,1,0", "--cos-l", "4/5"],
    ["plane", "step", "--p", "1,1,0", "--q", "1,2,2", "--cos-l", "7/8"],
    ["plane", "step", "--p", "1,0,0", "--q", "3,0,0", "--cos-l", "4/5"],
    ["plane", "step", "--p", "1,0,0", "--q", "4/5,3/5,0", "--cos-l", "1/2"],
    ["plane", "witness", "--p", P0, "--q=" + Q1, "--cos-l", "4/5", "--n", "1"],
    ["plane", "witness", "--p", P0, "--q=" + Q2, "--cos-l", "4/5", "--n", "2"],
    ["plane", "witness", "--p", P0, "--q=" + Q3, "--cos-l", "4/5", "--n", "3"],
    ["plane", "witness", "--p", P0, "--q=" + Q1, "--cos-l", "4/5", "--n", "2"],
    ["iso", "fixed-point", "--matrix", ROT],
    ["iso", "fixed-point", "--matrix", ROT2],
    ["iso", "fixed-point", "--matrix", "[[0,1,0],[0,0,1],[2,0,0]]"],
    ["iso", "fixed-point", "--matrix", "[[1,2,0],[0,1,3],[1,0,1]]"],
    ["iso", "fixed-point", "--matrix", "[[1,0,0],[0,1,0],[0,0,-1]]"],
    ["iso", "fixed-point", "--matrix", "[[2,0,0],[0,2,0],[0,0,3]]"],
    ["iso", "fixed-point", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]"],
    ["iso", "fixed-point", "--matrix", "[[1,0,0],[0,1,0],[0,0,0]]"],
    # maps over Q(sqrt 2) and Q(sqrt 2, sqrt 3): the smallest real
    # eigenvalue is sqrt 2, 1 (the rotation's axis, turned by the
    # conjugation) and -3
    ["iso", "fixed-point", "--matrix", '[["sqrt(2)",0,0],[0,2,0],[0,0,3]]'],
    ["iso", "fixed-point", "--matrix", TURN_CONJ],
    ["iso", "fixed-point", "--matrix", '[[1,0,0],[0,-3,0],[0,0,"sqrt(2)"]]'],
    ["iso", "sample-edges", "--matrix", ROT, "--cos-l", "4/5", "--count", "3",
     "--seed", "7"],
    ["graph", "path", "--p", "1,0,0", "--q", "1,sqrt(3),0", "--cos-l", "4/5"],
    ["graph", "path", "--p", "1,0,0", "--q", "0,1,0", "--cos-l", "4/5"],
    ["graph", "path", "--p", "1,1,0", "--q", "1,2,2", "--cos-l", "7/8"],
    # distance 3 at an irrational cos l: a geodesic step, then the detour
    ["graph", "path", "--p", "1,0,0", "--q", "1,2,2", "--cos-l", "sqrt(3)/2"],
    ["graph", "distance", "--p", "1,0,0", "--q", "0,1,0", "--cos-l", "4/5"],
    ["graph", "distance", "--p", "1,1,0", "--q", "1,2,2", "--cos-l", "7/8"],
    ["graph", "diameter", "--cos-l", "4/5"],
    ["graph", "validate", "--cos-l", "4/5"],
    # coordinates over several unrelated fields, and a point re-read from
    # JSON: the inner products join three and five generators
    ["plane", "dist", "--p", "sqrt(2),sqrt(3),1", "--q", "sqrt(5),1,0"],
    ["plane", "dist", "--p", "sqrt(2),sqrt(3),sqrt(5)",
     "--q", '{"x":"1","y":"sqrt(7)","z":"root(-2,0,0,1,0)"}'],
    # ladder cosines, orthogonality, edges and a chosen cos l: an answer
    # and a domain error each
    ["plane", "ellncos", "--cos-l", "sqrt(3)/2", "--n", "2"],
    ["plane", "ellncos", "--cos-l", "2", "--n", "3"],
    ["iso", "check-orthogonal", "--matrix", '[["sqrt(2)",0,0],[0,1,0],[0,0,1]]'],
    ["iso", "check-orthogonal", "--matrix", "[[1,0],[0,1]]"],
    ["graph", "edge", "--p", "1,0,0", "--q", "4/5,3/5,0", "--cos-l", "4/5"],
    ["graph", "edge", "--p", "0,0,0", "--q", "0,1,0", "--cos-l", "4/5"],
    ["graph", "choose-ell", "--diameter", "4"],
    ["graph", "choose-ell", "--diameter", "2"],
]

# sums, products and quotients over Q(sqrt 2), Q(sqrt 3) and cubic fields,
# each generator reached by separate sqrt()/root() calls; equal pairs
# reached two ways; a sum across two fields
CBRT2 = "root(-2,0,0,1,0)"
PLASTIC = "root(-1,-1,0,1,0)"
CBRT4 = "root(-4,0,0,1,0)"
SQRT2_3 = "root(1,0,-10,0,1,3)"     # sqrt(2) + sqrt(3)
FIELD_CALLS = [
    ["field", "eval", "--expr", "sqrt(2)+sqrt(8)"],
    ["field", "eval", "--expr", "(1+sqrt(2))*(3-sqrt(2))"],
    ["field", "eval", "--expr", "(1+sqrt(2))/(3-sqrt(2))"],
    ["field", "eval", "--expr", "sqrt(3)*sqrt(12)"],
    ["field", "eval", "--expr", "(2+sqrt(3))*(5-sqrt(27))"],
    ["field", "eval", "--expr", "(2+sqrt(3))/(1-sqrt(3))"],
    ["field", "eval", "--expr", f"{CBRT2}*{CBRT2}+{CBRT2}"],
    ["field", "eval", "--expr", f"(2*{CBRT2}-1)*({CBRT2}*{CBRT2}+3)"],
    ["field", "eval", "--expr", f"1/(1+{CBRT2})"],
    ["field", "eval", "--expr", f"({PLASTIC}+2)/({PLASTIC}*{PLASTIC}-{PLASTIC})"],
    ["field", "eval", "--expr", f"sqrt(2)+{CBRT2}"],
    ["field", "compare", "--a", "sqrt(8)/2",
     "--b", "(sqrt(2)+1)*(sqrt(2)-1)*sqrt(2)"],
    ["field", "compare", "--a", f"1/({CBRT2}-1)",
     "--b", f"{CBRT2}*{CBRT2}+{CBRT2}+1"],
    ["field", "compare", "--a", "sqrt(2)+sqrt(3)", "--b", "sqrt(10)"],
    ["field", "compare", "--a", f"{CBRT2}*{CBRT2}", "--b", "sqrt(2)+1/5"],
    ["field", "roots", "--poly=-1,-4,4,8"],
    ["field", "angle-rational", "--cos", "sqrt(3)/2"],
    ["field", "angle-rational", "--cos", "sqrt(2)/3"],
    ["field", "angle-rational", "--cos", "root(-1,-4,4,8,2)"],
    # fields that share a subfield: the cube roots of 2 and 4, and
    # sqrt(2) + sqrt(3) with sqrt(2)
    ["field", "eval", "--expr", f"{CBRT2}+{CBRT4}"],
    ["field", "eval", "--expr", f"{CBRT2}*{CBRT4}-2"],
    ["field", "eval", "--expr", f"{SQRT2_3}-sqrt(2)"],
    ["field", "eval", "--expr", f"({SQRT2_3}-sqrt(2))*{CBRT2}+{CBRT4}"],
    # a square in a cubic field, at whose inert prime 3 the elements x,
    # x + 1 and x + 2 are all squares
    ["field", "eval", "--expr", "sqrt(root(-2209,-349,-3,1,0))"],
    # products, quotients and images over a tower sqrt(2 + sqrt 3), an even
    # quartic, over sqrt(2) + sqrt(3) and over a sextic compositum: inverses
    # over a quadratic, an even quartic and a sextic, compositions of linear
    # and quadratic elements into larger fields, reductions of products
    ["field", "eval", "--expr", "1/(1+sqrt(2+sqrt(3)))"],
    ["field", "eval", "--expr", "(sqrt(2)+sqrt(3))*(sqrt(2)+sqrt(3))*(sqrt(2)+sqrt(3))"],
    ["field", "eval", "--expr", "(1+sqrt(2+sqrt(3)))/(3-sqrt(3))"],
    ["field", "eval", "--expr", f"({CBRT2}+sqrt(3))/(1+sqrt(3))"],
    ["field", "eval", "--expr", "sqrt(2+sqrt(3))*(1+sqrt(3))*sqrt(2+sqrt(3))"],
    # two roots of one quartic, whose join no prime certifies
    ["field", "eval", "--expr", "sqrt(2+sqrt(3))*sqrt(2-sqrt(3))"],
    # towers over a cubic and over a sextic compositum: the quadratic
    # subfield sqrt 2 is recorded in a sextic by one sign over it, the
    # cubic and sextic subfields by a root count in a hull
    ["field", "eval", "--expr", f"sqrt(1+{CBRT2})"],
    ["field", "eval", "--expr", f"sqrt(3+sqrt(2)+{CBRT2})"],
]

S4 = "(0 1);(0 1 2 3)"
S5 = "(1 3);(4 2 0 3 1)"     # S5 with its points relabelled
C4 = json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]})
P3 = json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]})
CUBE = json.dumps({"n": 8, "edges": [[i, i ^ b] for i in range(8)
                                     for b in (1, 2, 4) if i < i ^ b]})
C5 = json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]})
Q8 = json.dumps([[0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6],
                 [2, 3, 1, 0, 6, 7, 5, 4], [3, 2, 0, 1, 7, 6, 4, 5],
                 [4, 5, 7, 6, 1, 0, 2, 3], [5, 4, 6, 7, 0, 1, 3, 2],
                 [6, 7, 4, 5, 3, 2, 1, 0], [7, 6, 5, 4, 2, 3, 0, 1]])

FINITE_CALLS = [
    ["finite", cmd, "--group", group]
    for group in (S4, S5) for cmd in ("cf", "jordan", "subgroups")
] + [
    ["finite", cmd, "--graph", fg]
    for fg in (C4, P3, CUBE) for cmd in ("rotary", "automorphisms")
] + [
    ["finite", "bipartite", "--graph", CUBE],
    ["finite", "bipartite", "--graph", C5],
    ["finite", "conjgraph", "--group", "(0 1);(0 1 2)", "--g1", "(0 1)",
     "--g3", "(0 1 2)"],
    ["finite", "conjgraph", "--table", Q8, "--g1", "2", "--g3", "4"],
    ["finite", "census", "--n-max", "4"],
    ["finite", "subgroups", "--group", "(0 1);(0 1 2 3 4 5 6)"],   # S7
    ["finite", "cf", "--group", "(1)(0 1)"],     # 1 named twice
]
# indented output, and details that JSON must escape: a Latin-1 letter, a
# quote and a backslash, a control character, a character past the BMP
TEXT_CALLS = [
    ["finite", "census", "--n-max", "2", "--pretty"],
    ["plane", "equidistant", "--p", "1,0,0", "--q", "0,1,0", "--cos-l", "3/5",
     "--pretty", "--approx", "20"],
    ["field", "eval", "--expr", "1/0", "--pretty"],
    ["field", "eval", "--expr", "\u00e9"],
    ["field", "eval", "--expr", '"\\'],
    ["field", "eval", "--expr", "\x01"],
    ["field", "eval", "--expr", "1+\U0001f600"],
    ["finite", "cf", "--group", "(0 \u00e9)"],
]
ARGVS = [argv + extra for argv in CALLS + FIELD_CALLS
         for extra in ([], ["--approx", "53"])] + FINITE_CALLS + TEXT_CALLS

# the transcripts that factorise with sympy (polys.factor_int), in order:
# no certificate covers some of their candidates.  A kernel change that
# sends another transcript there fails.
FACTORISING = [argv + extra for argv in (
    ["iso", "fixed-point", "--matrix", TURN_CONJ],
    ["plane", "dist", "--p", "sqrt(2),sqrt(3),sqrt(5)",
     "--q", '{"x":"1","y":"sqrt(7)","z":"root(-2,0,0,1,0)"}'],
    ["field", "eval", "--expr", f"{CBRT2}+{CBRT4}"],
    ["field", "eval", "--expr", f"{CBRT2}*{CBRT4}-2"],
    ["field", "eval", "--expr", f"{SQRT2_3}-sqrt(2)"],
    ["field", "eval", "--expr", f"({SQRT2_3}-sqrt(2))*{CBRT2}+{CBRT4}"],
    ["field", "eval", "--expr", "sqrt(2+sqrt(3))*sqrt(2-sqrt(3))"],
) for extra in ([], ["--approx", "53"])]


def test_cli_golden_transcripts(capsys, monkeypatch):
    want = json.loads(GOLDEN.read_text())
    assert [w["argv"] for w in want] == ARGVS, "re-record cli_golden.json"
    factorising, factor_int = [], polys.factor_int
    monkeypatch.setattr(polys, "factor_int",
                        lambda c: factorising.append(argv) or factor_int(c))
    start = time.monotonic()
    for w in want:
        argv = w["argv"]
        code = cli.main(argv)
        got = {"argv": argv, "exit": code, "stdout": capsys.readouterr().out}
        assert got == w
    assert time.monotonic() - start < 10
    assert [a for a in ARGVS if a in factorising] == FACTORISING


def test_recorded_field_values_are_sympys():
    """Each value a recorded `field eval` call printed is sympy's value of
    the expression it was given (tests/sympy_oracle.py)."""
    checked = 0
    for w in json.loads(GOLDEN.read_text()):
        argv = w["argv"]
        if argv[:3] == ["field", "eval", "--expr"] and len(argv) == 4 and w["exit"] == 0:
            printed = json.loads(w["stdout"])["value"]
            assert so.same_value(expr.parse(printed), so.parse(argv[3])), argv
            checked += 1
    assert checked == 24


def _record():
    got = []
    for argv in ARGVS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        got.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(g) for g in got) + "\n]\n")


if __name__ == "__main__":
    _record()
