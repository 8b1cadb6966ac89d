import argparse
import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rotagraph import algebraic, cli, polys
from rotagraph.errors import RotagraphError, read_int

CLI = [sys.executable, "-m", "rotagraph.cli"]
# the CLI runs in a child process, which imports the package from this checkout
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run(*args, check=True, timeout=None):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=ENV, timeout=timeout)
    if check:
        assert proc.returncode == 0, proc.stderr or proc.stdout
    return proc


def run_json(*args):
    return json.loads(run(*args).stdout)


def test_field_eval_and_round_trip():
    out = run_json("field", "eval", "--expr", "sqrt(2) * sqrt(2)")
    assert out["value"] == "2"
    nested = run_json("field", "eval", "--expr", "sqrt(2) + sqrt(3)")
    again = run_json("field", "eval", "--expr", nested["value"])
    assert again["value"] == nested["value"]


def test_field_compare_and_roots():
    assert run_json("field", "compare", "--a", "sqrt(2)", "--b", "3/2")["result"] == "less"
    out = run_json("field", "roots", "--poly=-2,0,1")
    assert len(out["roots"]) == 2


def test_field_angle_rational():
    out = run_json("field", "angle-rational", "--cos", "1/2")
    assert out == {"rational_angle": True, "witness": "pi/3"}
    out = run_json("field", "angle-rational", "--cos", "1/3")
    assert out["rational_angle"] is False


def test_plane_dist_and_equidistant():
    out = run_json("plane", "dist", "--p", "1,0,0", "--q", "4/5,3/5,0")
    assert out["cos_d"] == "4/5"
    eq = run_json("plane", "equidistant", "--p", "1,0,0", "--q", "0,1,0",
                  "--cos-l", "3/5")
    d1 = run_json("plane", "dist", "--p", "1,0,0",
                  "--q", json.dumps(eq["point"]))
    assert d1["cos_d"] == "3/5"


def test_plane_infeasible_exit_code():
    proc = run("plane", "equidistant", "--p", "1,0,0", "--q", "0,1,0",
               "--cos-l", "9/10", check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == "infeasible"


def test_graph_diameter_example():
    out = run_json("graph", "diameter", "--cos-l", "4/5")
    assert out["diameter"] == 3
    assert run_json("graph", "diameter", "--cos-l", "7/8")["diameter"] == 4


def test_graph_distance_and_path():
    out = run_json("graph", "distance", "--p", "1,0,0", "--q", "0,1,0",
                   "--cos-l", "4/5")
    assert out["distance"] == 3
    path = run_json("graph", "path", "--p", "1,0,0", "--q", "0,1,0",
                    "--cos-l", "4/5")
    assert path["length"] == 3
    assert len(path["path"]) == 4 and path["verified"] is True


def test_finite_cf_and_jordan():
    out = run_json("finite", "cf", "--group", "(0 1 2 3)")
    assert out["orbit_count"] == 1
    assert out["average_fixed_points"] == "1"
    out = run_json("finite", "jordan", "--group", "(0 1 2 3)")
    assert "(" in out["witness"]


def test_finite_subgroups_and_census():
    out = run_json("finite", "subgroups", "--group", "(0 1); (0 1 2)")
    assert out["count"] == 6
    out = run_json("finite", "census", "--n-max", "3")
    assert all(out["assertions"].values())
    proc = run("finite", "census", "--n-max", "8", check=False)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "bound-exceeded"


def test_finite_rotary_certifies_k6():
    k6 = {"n": 6, "edges": [[i, j] for i in range(6) for j in range(i + 1, 6)]}
    proc = run("finite", "rotary", "--graph", json.dumps(k6))
    assert proc.stdout == '{"rotarily_transitive": false}\n'


def test_finite_rotary_certifies_k7():
    k7 = {"n": 7, "edges": [[i, j] for i in range(7) for j in range(i + 1, 7)]}
    proc = run("finite", "rotary", "--graph", json.dumps(k7))
    assert proc.stdout == '{"rotarily_transitive": false}\n'


def test_rotary_and_census_take_no_bound():
    for argv in (["rotary", "--graph", '{"n": 1, "edges": []}', "--bound", "720"],
                 ["census", "--n-max", "2", "--bound", "720"],
                 ["census", "--n-max", "2", "--allow-seven"],
                 ["subgroups", "--group", "(0 1)", "--bound", "100"]):
        proc = run("finite", *argv, check=False)
        assert proc.returncode == 2 and not proc.stdout


def test_finite_non_integer_entries_are_preconditions():
    for argv in (["conjgraph", "--table", "[1,2]", "--g1", "1", "--g3", "0"],
                 ["conjgraph", "--table", "[[0,1],[1,1.5]]", "--g1", "1", "--g3", "0"],
                 ["conjgraph", "--table", "[[true,false],[false,true]]",
                  "--g1", "1", "--g3", "0"],
                 ["automorphisms", "--graph", '{"n": 3, "edges": [[0, "1"]]}'],
                 ["automorphisms", "--graph", '{"n": 3, "edges": [[0, 1.0]]}'],
                 ["bipartite", "--graph", '{"n": true, "edges": []}'],
                 ["automorphisms", "--graph", '{"n": 2, "edges": [[0, 1, 2]]}'],
                 ["automorphisms", "--graph", '{"n": 2, "edges": [[0]]}']):
        proc = run("finite", *argv, check=False)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["error"] == "precondition"


def test_finite_degree_budget():
    start = time.monotonic()
    proc = run("finite", "cf", "--group", "(0 3000000)", check=False)
    assert time.monotonic() - start < 5
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "bound-exceeded"


def test_finite_group_order_budget():
    proc = run("finite", "cf", "--group", "(0 1);(0 1 2 3 4 5 6 7 8)", check=False)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "bound-exceeded"
    out = run_json("finite", "cf", "--group", "(0 1);(0 1 2 3 4 5 6 7)")   # 8!
    assert out["orbit_count"] == 1


def test_global_flags_both_positions():
    a = run("--approx", "53", "field", "eval", "--expr", "sqrt(2)").stdout
    b = run("field", "eval", "--approx", "53", "--expr", "sqrt(2)").stdout
    assert a == b
    assert json.loads(a)["value_approx"].startswith("1.414")


def test_determinism_byte_identical():
    args = ("graph", "path", "--p", "1,0,0", "--q", "0,1,0", "--cos-l", "7/8")
    assert run(*args).stdout == run(*args).stdout


def test_usage_error_exit_2():
    assert run("graph", "diameter", check=False).returncode == 2
    assert run("nonsense", check=False).returncode == 2


def test_parse_error_exit_1():
    proc = run("field", "eval", "--expr", "sqrt(", check=False)
    assert proc.returncode == 1
    assert "parse" in json.loads(proc.stdout)["error"]


# the seven-deep nested square root, a degree-128 generator
N7 = "sqrt(2+" * 6 + "sqrt(2)" + ")" * 6


def test_sigint_exit_130():
    # printing a value over a degree-128 generator runs for well over 5 s,
    # so the signal lands mid-computation
    proc = subprocess.Popen(
        CLI + ["field", "eval", "--expr", f"1/({N7}*{N7}+{N7})"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV)
    time.sleep(1.0)
    proc.send_signal(signal.SIGINT)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 130
    assert json.loads(out)["error"] == "interrupted"


INTERRUPT_WHILE_RENDERING = """
import signal, sys
from rotagraph import cli
render = cli._render
def interrupting_render(obj, bits):
    signal.raise_signal(signal.SIGINT)
    return render(obj, bits)
cli._render = interrupting_render
sys.exit(cli.main(["finite", "cf", "--group", "(0 1 2)"]))
"""


def test_sigint_while_rendering():
    """A SIGINT once the answer is computed gives the whole answer (exit 0)
    or only the interrupted object (exit 130), never a death by signal."""
    proc = subprocess.run([sys.executable, "-c", INTERRUPT_WHILE_RENDERING],
                          capture_output=True, text=True, env=ENV, timeout=60)
    assert proc.returncode in (0, 130), proc.stderr
    want = {"orbit_count": 1, "average_fixed_points": "1"} if proc.returncode == 0 \
        else {"error": "interrupted", "detail": "cancelled before completion"}
    assert json.loads(proc.stdout) == want


def test_malformed_inputs_share_one_parse_code():
    for args in (("finite", "cf", "--group", "(0 1]"),
                 ("field", "roots", "--poly", "1,x"),
                 ("finite", "automorphisms", "--graph", '{"n": 3, "edges": [[0, 1]'),
                 ("iso", "fixed-point", "--matrix", "[1,2,3]"),
                 ("iso", "fixed-point", "--matrix", "5"),
                 ("iso", "check-orthogonal", "--matrix", "[[1,0,0],[0,1,0],7]")):
        proc = run(*args, check=False)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, args
        assert json.loads(proc.stdout)["error"] == "parse-error", args


def test_negative_counts_are_out_of_range():
    for args in (("iso", "sample-edges", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]",
                  "--cos-l", "4/5", "--count", "-1"),
                 ("finite", "census", "--n-max", "-3")):
        proc = run(*args, check=False)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, args
        assert json.loads(proc.stdout)["error"] == "out-of-range", args


def test_conjgraph_table_and_group_is_usage_error():
    proc = run("finite", "conjgraph", "--group", "(0 1);(0 1 2)", "--table", "[[0]]",
               "--g1", "(0 1)", "--g3", "(0 1 2)", check=False)
    assert proc.returncode == 2 and not proc.stdout
    assert "not allowed with" in proc.stderr


def test_integer_json_entries():
    ints = [[1, 2, 0], [0, 1, 3], [1, 0, 1]]
    strings = [[str(v) for v in row] for row in ints]
    for matrix in (ints, strings):
        out = run_json("iso", "fixed-point", "--matrix", json.dumps(matrix))
        assert out == {"point": {"x": "root(-12,0,18,11,0)",
                                 "y": "root(-9,27,-27,11,0)",
                                 "z": "root(-2,6,-6,11,0)"}}
    out = run_json("plane", "dist", "--p", '{"x": 1, "y": 0, "z": 0}',
                   "--q", "4/5,3/5,0")
    assert out["cos_d"] == "4/5"


def test_non_string_json_entries_are_parse_errors():
    for entry in ("1.5", "true", "null"):
        proc = run("iso", "fixed-point", "--matrix",
                   f"[[{entry},2,0],[0,1,3],[1,0,1]]", check=False)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["error"] == "parse-error"
    proc = run("plane", "dist", "--p", '{"x": 1, "y": 0, "z": null}',
               "--q", "1,0,0", check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == "parse-error"


def test_parse_depth_budget():
    proc = run("field", "eval", "--expr", "(" * 3000 + "1" + ")" * 3000,
               check=False)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "bound-exceeded"
    out = run_json("field", "eval", "--expr", "(" * 50 + "sqrt(2)" + ")" * 50)
    assert out["value"] == "root(-2,0,1,1)"


def test_candidate_degree_budget():
    # 9 nested square roots give degree 256; the 10th would need a
    # degree-512 candidate, whose factorisation alone takes tens of seconds
    proc = run("field", "eval", "--expr", "sqrt(" * 12 + "4" + ")" * 12,
               check=False, timeout=30)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "bound-exceeded"
    out = run_json("field", "eval", "--expr", "sqrt(" * 8 + "4" + ")" * 8)
    assert out["value"] == "root(-2," + "0," * 127 + "1,1)"


def test_bad_approx_bits_is_usage_error():
    for bits in ("abc", "-3"):
        proc = run("--approx=" + bits, "field", "eval", "--expr", "1", check=False)
        assert proc.returncode == 2
        assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
    # the flag is the only way to set BITS
    proc = subprocess.run(CLI + ["field", "eval", "--expr", "sqrt(2)"],
                          capture_output=True, text=True,
                          env={**ENV, "ROTAGRAPH_APPROX_BITS": "abc"})
    assert proc.returncode == 0 and json.loads(proc.stdout) == {"value": "root(-2,0,1,1)"}


def _fails_fast(argv, error):
    start = time.monotonic()
    proc = run(*argv, check=False, timeout=60)
    assert time.monotonic() - start < 10, argv
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, argv
    assert json.loads(proc.stdout)["error"] == error, argv


def test_approx_bits_budget():
    _fails_fast(("--approx", "50000", "field", "eval", "--expr", "sqrt(2)"),
                "bound-exceeded")
    out = run_json("--approx", "4096", "field", "eval", "--expr", "sqrt(2)")
    assert out["value_approx"].startswith("1.41421356237")


def test_ladder_index_budget():
    # a ladder of n steps is a path of n edges: the step budget bounds it
    _fails_fast(("plane", "ellncos", "--cos-l", "4/5", "--n", "20000"), "bound-exceeded")
    _fails_fast(("plane", "witness", "--p", "1,0,0", "--q", "0,1,0", "--cos-l", "4/5",
                 "--n", "100000"), "bound-exceeded")
    assert run_json("plane", "ellncos", "--cos-l", "4/5", "--n", "64")["cos_ln"]


def test_ellncos_prints_the_folded_cosine():
    assert run_json("plane", "ellncos", "--cos-l", "1/2", "--n", "2") == {"cos_ln": "1/3"}


def test_output_too_long_to_print_is_bound_exceeded():
    # parses, but the 6000-digit product is past Python's int-to-str limit
    nines = "9" * 3000
    _fails_fast(("field", "eval", "--expr", f"{nines}*{nines}"), "bound-exceeded")


def test_input_too_long_to_read_is_bound_exceeded():
    # past Python's limit of 4300 digits on converting a string to an int:
    # an expression literal, a JSON point or matrix entry, a coefficient,
    # an element index
    nines = "9" * 5000
    for args in (("field", "eval", "--expr", nines),
                 ("field", "eval", "--expr", f"1/{nines}"),
                 ("plane", "dist", "--p", '{"x": %s, "y": 0, "z": 1}' % nines,
                  "--q", "1,0,0"),
                 ("iso", "check-orthogonal", "--matrix", f"[[{nines},0,0],[0,1,0],[0,0,1]]"),
                 ("field", "roots", "--poly", f"1,{nines}"),
                 ("finite", "conjgraph", "--group", "(0 1); (0 1 2)", "--g1", nines,
                  "--g3", "1")):
        proc = run(*args, check=False)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, args[:2]
        assert proc.stdout == ('{"error": "bound-exceeded", '
                               '"detail": "an integer of 5000 digits is too long to read"}\n')


# nested past the recursion limit of every supported interpreter (3.13
# parses 10000 levels), yet under the 128 KiB a single argv string may take
DEEP_JSON = "[" * 50000 + "]" * 50000
DEEP_POINT = '{"x": %s, "y": 0, "z": 1}' % DEEP_JSON
DEEP_JSON_ERROR = ('{"error": "bound-exceeded", '
                   '"detail": "JSON input nested past the recursion limit"}\n')


@pytest.mark.parametrize("argv", [
    ["iso", "fixed-point", "--matrix", DEEP_JSON],
    ["iso", "check-orthogonal", "--matrix", DEEP_JSON],
    ["iso", "sample-edges", "--matrix", DEEP_JSON, "--cos-l", "4/5"],
    ["finite", "rotary", "--graph", DEEP_JSON],
    ["finite", "automorphisms", "--graph", DEEP_JSON],
    ["finite", "bipartite", "--graph", DEEP_JSON],
    ["finite", "conjgraph", "--table", DEEP_JSON, "--g1", "0", "--g3", "1"],
    ["plane", "dist", "--p", DEEP_POINT, "--q", "1,0,0"],
    ["graph", "edge", "--p", "1,0,0", "--q", DEEP_POINT, "--cos-l", "4/5"],
], ids=["fixed-point", "check-orthogonal", "sample-edges", "rotary", "automorphisms",
        "bipartite", "table", "point p", "point q"])
def test_json_nested_past_the_recursion_limit_is_bound_exceeded(argv, capsys):
    """Every flag that takes JSON (a matrix, a graph, a group table, a
    point) refuses nesting that json.loads cannot recurse through."""
    assert main_exit(capsys, argv) == (1, DEEP_JSON_ERROR, "")


def test_json_nested_past_the_recursion_limit_in_a_process_of_its_own():
    proc = run("iso", "fixed-point", "--matrix", DEEP_JSON, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, DEEP_JSON_ERROR, "")


def test_cycle_index_too_long_to_read_is_bound_exceeded():
    # with --degree given, the cycle indices are read without inferring it
    nines = "9" * 5000
    for cmd in ("cf", "jordan"):
        proc = run("finite", cmd, "--group", f"(0 {nines})", "--degree", "3", check=False)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, cmd
        assert proc.stdout == ('{"error": "bound-exceeded", '
                               '"detail": "an integer of 5000 digits is too long to read"}\n')


@pytest.mark.parametrize("argv", [
    ["field", "eval", "--expr", "\u0661/\u0662"],
    ["field", "eval", "--expr", "\U0001d7d9"],
    ["field", "roots", "--poly", "-\u0665,1"],
    ["finite", "cf", "--group", "(\u0660 1 2)"],
    ["finite", "conjgraph", "--group", "(0 1 2);(0 1)", "--g1", "\u0661", "--g3", "2"],
    ["plane", "dist", "--p", "\u0661,0,0", "--q", "0,1,0"],
], ids=["expression", "astral digit", "coefficients", "cycle", "element", "point"])
def test_integer_literals_are_ascii_digits(argv, capsys):
    """Python's int() reads the digits of other scripts; the grammar's
    literals, in expressions, coefficient lists, cycle notation and
    element indices, are ASCII 0-9 alone, and the detail names the input,
    not int()'s message."""
    code, out, err = main_exit(capsys, argv)
    answer = json.loads(out)
    assert (code, answer["error"], err) == (1, "parse-error", ""), out
    assert "int()" not in answer["detail"], out


@pytest.mark.parametrize("argv", [
    ["finite", "census", "--n-max", "\u0662"],
    ["plane", "ellncos", "--cos-l", "4/5", "--n", "\u0662"],
    ["plane", "ellncos", "--cos-l", "4/5", "--n=\uff11"],
    ["--seed", "\U0001d7d9", "iso", "sample-edges", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]",
     "--cos-l", "4/5"],
], ids=["census", "ladder", "fullwidth", "astral"])
def test_int_flags_take_ascii_digits_only(argv, capsys):
    """An int flag is read by errors.ascii_int, which both the reader and
    argparse take: the digits of other scripts, which int() reads, are a usage
    error (the reader declines, and argparse exits 2)."""
    assert cli._read(argv) is None
    code, out, err = main_exit(capsys, argv)
    assert (code, out) == (2, "") and err.startswith("usage:"), err


def test_read_int_takes_ascii_digits_only():
    assert read_int(" -1_000 ") == -1000
    for text in ("\u0661", "-\u0665", "1\u0660", "\U0001d7d9"):
        with pytest.raises(ValueError):
            read_int(text)


def test_negative_degree_is_out_of_range():
    for cmd, group in (("cf", "(0 1)"), ("jordan", "()")):
        proc = run("finite", cmd, "--group", group, "--degree", "-2", check=False)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, cmd
        assert proc.stdout == '{"error": "out-of-range", "detail": "degree -2 is negative"}\n'


def test_sample_edges_count_budget():
    _fails_fast(("iso", "sample-edges", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]",
                 "--cos-l", "4/5", "--count", "1000000000"), "bound-exceeded")


def test_bad_cycle_token_names_the_notation():
    proc = run("finite", "cf", "--group", "(0 x)", check=False)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {"error": "parse-error",
                                       "detail": "bad cycle notation: '(0 x)'"}


def test_fixed_point_past_the_candidate_budget_builds_no_norm(monkeypatch, capsys):
    # the characteristic cubic over the degree-128 field of N7 has a norm of
    # degree 384: bound-exceeded before the norm is built or anything is
    # factorised.  Norms within the budget, the minimal polynomials that
    # parsing N7 reads, are built as usual.
    def unreachable(*args):
        raise AssertionError("reached past the candidate budget")

    def norm(f, m, original=polys.norm):
        if (len(f) - 1) * polys.degree(m) > algebraic._MAX_CAND_DEGREE:
            unreachable()
        return original(f, m)

    monkeypatch.setattr(polys, "norm", norm)
    monkeypatch.setattr(polys, "factor_int", unreachable)
    code, out, _ = main_exit(capsys, ["iso", "fixed-point", "--matrix",
                                      json.dumps([[N7, 0, 0], [0, 2, 0], [0, 0, 3]])])
    assert code == 1 and json.loads(out)["error"] == "bound-exceeded"


def test_exact_stdout_of_edge_choose_ell_and_check_orthogonal():
    rot = '[["1/3","2/3","2/3"],["2/3","1/3","-2/3"],["-2/3","2/3","-1/3"]]'
    for args, want in (
            (("graph", "edge", "--p", "1,0,0", "--q", "4/5,3/5,0", "--cos-l", "4/5"),
             '{"edge": true}'),
            (("graph", "edge", "--p", "1,0,0", "--q", "0,1,0", "--cos-l", "4/5"),
             '{"edge": false}'),
            (("graph", "choose-ell", "--diameter", "30"),
             '{"cos_l": "681/682", "diameter": 30, "certificate": {"k": 30, '
             '"upper": "T_30(cos l) <= 0", "lower": "T_29(cos l) > 0"}}'),
            (("iso", "check-orthogonal", "--matrix", rot),
             '{"orthogonal": true, "det": "1"}'),
            (("iso", "check-orthogonal", "--matrix", "[[1,2,0],[0,1,3],[1,0,1]]"),
             '{"orthogonal": false, "det": "7"}')):
        assert run(*args).stdout == want + "\n", args


def test_graph_path_of_length_zero_and_one():
    e1 = '{"x": "1", "y": "0", "z": "0"}'
    for q, want in (("1,0,0", '{"length": 0, "path": [%s], "verified": true}' % e1),
                    ("4/5,3/5,0", '{"length": 1, "path": [%s, {"x": "4/5", '
                     '"y": "3/5", "z": "0"}], "verified": true}' % e1)):
        out = run("graph", "path", "--p", "1,0,0", "--q", q, "--cos-l", "4/5").stdout
        assert out == want + "\n", q


def test_parse_error_details_name_the_input():
    for args, detail in (
            (("plane", "dist", "--p", '{"x": 1}', "--q", "1,0,0"),
             "a point needs keys x, y and z, got {'x': 1}"),
            (("field", "roots", "--poly", ""),
             "bad coefficient list '': expected comma-separated integers"),
            (("field", "roots", "--poly", "1,a"),
             "bad coefficient list '1,a': expected comma-separated integers"),
            (("field", "roots", "--poly", "1,,2"),
             "bad coefficient list '1,,2': expected comma-separated integers"),
            (("field", "eval", "--expr", ""), "unexpected end of expression")):
        proc = run(*args, check=False)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, args
        assert json.loads(proc.stdout) == {"error": "parse-error", "detail": detail}, args


def test_parse_error_details_of_large_entries_stay_short():
    """A rejected JSON entry whose repr passes 80 characters is named by its
    type and length, so a 30000-element entry in a matrix or a JSON point,
    and a point of 5000 keys (a longer argument passes what one argv
    string may hold), each answer in one line under 300 bytes."""
    big, keys = [0] * 30000, {f"k{i}": 0 for i in range(5000)}
    for args, detail in (
            (("iso", "fixed-point", "--matrix", json.dumps([[big, 0, 0], [0, 1, 0], [0, 0, 1]])),
             "expected an expression string or an integer, got a list of length 30000"),
            (("plane", "dist", "--p", json.dumps({"x": big, "y": 0, "z": 0}), "--q", "1,0,0"),
             "expected an expression string or an integer, got a list of length 30000"),
            (("plane", "dist", "--p", json.dumps(keys), "--q", "1,0,0"),
             "a point needs keys x, y and z, got a dict of length 5000"),
            (("plane", "dist", "--p", json.dumps({"x": 1, "y": 0, "z": 0, **keys}), "--q", "1,0,0"),
             "a point has keys x, y and z only, not 5000 other keys")):
        proc = run(*args, check=False)
        assert proc.returncode == 1 and proc.stderr == "", args[:2]
        assert proc.stdout.count("\n") == 1 and len(proc.stdout.encode()) < 300, args[:2]
        assert json.loads(proc.stdout) == {"error": "parse-error", "detail": detail}, args[:2]


def test_parse_error_details_of_long_arguments_stay_short(capsys):
    """A rejected argument of 60000 characters is named by the repr of its
    first 80 characters and its length: a coefficient list, cycle notation
    for each command that reads --group, an expression with an unexpected
    character, with trailing input or with a long token where '(' belongs,
    and an unknown group element.  Each answer is one line under 300
    bytes, and so is each answer that names an int of 4000 digits (by its
    digit count) or 3000 extra graph keys (by their number), with its exit
    code: a usage error's line on stderr, after the usage."""
    n = 60000
    group = ["--group", "(0 1);(0 1 2)"]
    cases = [["field", "roots", "--poly", "x" * n],
             *(["finite", cmd, "--group", "(0 1)" + "x" * (n - 5)]
               for cmd in ("cf", "jordan", "subgroups")),
             ["finite", "conjgraph", "--group", "(0 1)" + "x" * (n - 5), "--g1", "0", "--g3", "0"],
             ["field", "eval", "--expr", "@" + "1" * n],
             ["field", "eval", "--expr", "1 " * (n // 2)],
             ["field", "eval", "--expr", "sqrt" + "1" * n],
             ["finite", "conjgraph", *group, "--g1", "e" * n, "--g3", "(0 1 2)"],
             ["finite", "conjgraph", *group, "--g1", "(0 1)", "--g3", "e" * n]]
    for argv in cases:
        code, out, err = main_exit(capsys, argv)
        assert (code, err) == (1, ""), argv[:2]
        assert out.count("\n") == 1 and len(out.encode()) < 300, argv[:2]
        assert json.loads(out)["error"] == "parse-error", argv[:2]
    code, out, _ = main_exit(capsys, ["field", "roots", "--poly", "1," + "2" * 100 + "x"])
    assert json.loads(out)["detail"] == (
        "bad coefficient list '1," + "2" * 78 + "'... (103 characters): "
        "expected comma-separated integers")
    big = "9" * 4000
    sample = ["iso", "sample-edges", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]", "--cos-l", "1/2"]
    extra = json.dumps({"n": 2, "edges": [], **{f"k{i}": 0 for i in range(3000)}})
    ints = [(sample + ["--count", big], "bound-exceeded"),
            (sample + ["--count", "-" + big], "out-of-range"),
            (["--approx", big, "field", "eval", "--expr", "1"], "bound-exceeded"),
            *((["finite", cmd, "--group", "(0 1)", "--degree", big], "bound-exceeded")
              for cmd in ("cf", "jordan", "subgroups")),
            (["graph", "choose-ell", "--diameter", big], "bound-exceeded"),
            (["finite", "census", "--n-max", "-" + big], "out-of-range"),
            (["finite", "bipartite", "--graph", f'{{"n": {big}, "edges": []}}'],
             "bound-exceeded"),
            (["field", "eval", "--expr", f"root(-2,0,1,{big})"], "out-of-range"),
            (["finite", "bipartite", "--graph", extra], "precondition")]
    for argv, error in ints:
        code, out, err = main_exit(capsys, argv)
        assert (code, err) == (1, ""), argv[:2]
        assert out.count("\n") == 1 and len(out.encode()) < 300, argv[:2]
        assert json.loads(out)["error"] == error, argv[:2]
        assert "4000 digits" in out or "3000 other keys" in out, argv[:2]
    code, out, err = main_exit(capsys, ["--approx", "-" + big, "field", "eval", "--expr", "1"])
    assert (code, out) == (2, "") and len(err.encode()) < 300
    assert err.splitlines()[-1] == (
        "rotagraph: error: approximation BITS must not be negative, "
        "got an integer of 4000 digits")


def test_graph_with_an_unknown_key_is_a_precondition():
    proc = run("finite", "bipartite", "--graph", '{"n": 2, "edges": [[0, 1]], "x": 1}',
               check=False)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ('{"error": "precondition", '
                           '"detail": "a graph has keys n and edges only, not \'x\'"}\n')


def test_point_with_an_unknown_key_is_a_parse_error():
    proc = run("plane", "dist", "--p", '{"x": 1, "y": 0, "z": 0, "w": 9}', "--q", "1,0,0",
               check=False)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ('{"error": "parse-error", '
                           '"detail": "a point has keys x, y and z only, not \'w\'"}\n')


def main_exit(capsys, argv):
    """cli.main(argv) in this process: exit code, stdout and stderr."""
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def names(text):
    return set(re.findall(r"[\w-]+", text))


def test_every_command_is_reachable_and_listed(capsys):
    for module, commands in cli.COMMANDS.items():
        for command in commands:
            code, out, _ = main_exit(capsys, [module, command, "--help"])
            assert code == 0 and out.startswith(f"usage: rotagraph {module} {command}"), \
                (module, command)
        code, out, err = main_exit(capsys, [module, "bogus"])
        assert code == 2 and not out and set(commands) <= names(err), module
    for argv in (["bogus"], ["-h", "field"]):
        code, out, err = main_exit(capsys, argv)
        assert code == (2 if argv == ["bogus"] else 0), argv
        assert set(cli.COMMANDS) <= names(out + err), argv


def test_only_help_and_usage_errors_build_argparse_parsers(monkeypatch, capsys):
    """A well-formed call is read from COMMANDS and builds no parser;
    help builds the top-level parsers, and a usage error inside a module
    the command parsers of that module only."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv, code, built in ((["field", "eval", "--expr", "1"], 0, 0),
                              (["finite", "cf", "--group", "(0 1)"], 0, 0),
                              (["--help"], 0, 7),
                              (["field", "eval", "--expr", "1", "extra"], 2, 11)):
        progs.clear()
        assert main_exit(capsys, argv)[0] == code, argv
        assert len(progs) == built, argv
        commands = [p for p in progs if p and len(p.split()) == 3]
        assert all(p.split()[1] == "field" for p in commands), argv
    # with no argv, main reads sys.argv
    monkeypatch.setattr(sys, "argv", ["rotagraph", "plane", "dist",
                                      "--p", "1,0,0", "--q", "4/5,3/5,0"])
    progs.clear()
    handler = signal.getsignal(signal.SIGINT)
    try:
        assert cli.main() == 0 and not progs
    finally:    # a sys.argv call ignores SIGINT until its process exits
        signal.signal(signal.SIGINT, handler)
    assert capsys.readouterr().out == '{"cos_d": "4/5"}\n'


def test_a_flag_value_that_starts_with_a_minus_is_its_value(capsys):
    """A flag's value may start with '-' in the space-separated form too,
    and prints what the --flag=value form prints; a value that is one of
    the parser's options stays a usage error."""
    for argv, joined, want in (
            (["field", "roots", "--poly", "-5,1"], ["field", "roots", "--poly=-5,1"],
             '{"roots": ["5"]}'),
            (["field", "eval", "--expr", "-1/2"], ["field", "eval", "--expr=-1/2"],
             '{"value": "-1/2"}'),
            (["plane", "dist", "--p", "-1,2,2", "--q", "1,0,0"],
             ["plane", "dist", "--p=-1,2,2", "--q", "1,0,0"], '{"cos_d": "1/3"}')):
        assert main_exit(capsys, argv) == main_exit(capsys, joined) == (0, want + "\n", ""), argv
    code, out, err = main_exit(capsys, ["field", "eval", "--expr", "--pretty"])
    assert code == 2 and not out and "argument --expr: expected one argument" in err


def test_an_in_process_call_keeps_the_sigint_handler(capsys):
    """cli.main given argv leaves SIGINT's handler as it found it, the
    default one or a caller's own, after an answer (exit 0), a domain error
    (exit 1) and a usage error (SystemExit 2)."""
    def own(signum, frame):
        raise KeyboardInterrupt

    saved = signal.getsignal(signal.SIGINT)
    try:
        for handler in (signal.default_int_handler, own):
            signal.signal(signal.SIGINT, handler)
            for argv, want in ((["field", "eval", "--expr", "1"], 0),
                               (["field", "eval", "--expr", "1/0"], 1),
                               (["field", "nonsense"], 2)):
                assert main_exit(capsys, argv)[0] == want, argv
                assert signal.getsignal(signal.SIGINT) is handler, argv
    finally:
        signal.signal(signal.SIGINT, saved)


# -- the process entry -------------------------------------------------------

# the two ways a process enters the CLI, both through cli.run: the module
# run as a script, and the console script that pip installs
ENTRIES = {"-m": CLI,
           "console script": [sys.executable, "-c", "from rotagraph.cli import run; run()"]}
# an answer of each module from the golden transcripts (one with --approx),
# a 42 KB answer, help at two levels, two usage errors and a domain error
ENTRY_ARGVS = [
    ["field", "eval", "--expr", "(1+sqrt(2))/(3-sqrt(2))", "--approx", "53"],
    ["plane", "dist", "--p", "1,0,0", "--q", "4/5,3/5,0"],
    ["iso", "fixed-point", "--matrix", "[[1,2,0],[0,1,3],[1,0,1]]"],
    ["graph", "diameter", "--cos-l", "4/5"],
    ["finite", "jordan", "--group", "(1 3);(4 2 0 3 1)"],
    ["finite", "census", "--n-max", "6"],
    ["--help"],
    ["finite", "--help"],
    ["nonsense"],
    ["graph", "diameter"],
    ["plane", "equidistant", "--p", "1,0,0", "--q", "0,1,0", "--cos-l", "9/10"],
]


@pytest.mark.parametrize("argv", ENTRY_ARGVS, ids=" ".join)
def test_the_process_entry_prints_what_main_prints(argv, capsys):
    """Through either entry a process prints main's stdout byte for byte and
    exits with its code; help and usage errors also print its stderr."""
    code, out, err = main_exit(capsys, argv)
    for entry, cmd in ENTRIES.items():
        proc = subprocess.run(cmd + argv, capture_output=True, env=ENV, timeout=60)
        assert (proc.returncode, proc.stdout) == (code, out.encode()), (entry, argv)
        if code != 1:
            assert proc.stderr == err.encode(), (entry, argv)


# an answer (9.7 KB, past the stdout buffer), a domain error, help and a
# usage error, with the exit code each gives when stdout cannot take it
CLOSED_STDOUT = ((["finite", "census", "--n-max", "5"], 1),
                 (["field", "eval", "--expr", "1/0"], 1),
                 (["--help"], 1),
                 (["nonsense"], 2))


@pytest.mark.parametrize("stdout", ["no reader", "no reader, unbuffered", "closed"])
def test_a_stdout_that_cannot_take_the_output_exits_1(stdout):
    """A pipe whose read end is closed, with PYTHONUNBUFFERED unset and set,
    or a closed fd 1: exit 1 and nothing on stderr, neither a traceback nor
    an 'Exception ignored' line; a usage error prints its usage, exit 2."""
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    if stdout.endswith("unbuffered"):
        env["PYTHONUNBUFFERED"] = "1"
    for argv, want in CLOSED_STDOUT:
        if stdout == "closed":
            cmd, fd = ["sh", "-c", 'exec "$@" >&-', "sh", *CLI, *argv], None
        else:
            cmd, (r, fd) = CLI + argv, os.pipe()
            os.close(r)
        try:
            proc = subprocess.run(cmd, stdout=fd, stderr=subprocess.PIPE, text=True, env=env,
                                  timeout=60)
        finally:
            if fd is not None:
                os.close(fd)
        assert proc.returncode == want, argv
        if want == 2:
            assert proc.stderr.startswith("usage: rotagraph"), argv
        else:
            assert proc.stderr == "", argv


# -- the reader against argparse --------------------------------------------

READER_SETTINGS = settings(derandomize=True, max_examples=400, deadline=None,
                           database=None)

# values for flags that take one, those that start with '-' apart
PLAIN = ("1", "sqrt(2)", "(0 1 2)", "", "field", "x y", "1/2", "3")
DASHED = ("-1/2", "-5,1", "-", "-3", "--pretty", "--p", "--e", "--x y", "-h", "-x=1",
          "--ex=1")
INTS = ("3", "0", "-2", " 4 ", "1_0", "x", "", "\u0662", "\uff11", "\U0001d7d9")


def _argparse_vars(argv):
    """vars() of the namespace argparse gives argv, None on SystemExit."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._parse(argv))
    except SystemExit:
        return None


@st.composite
def flag_tokens(draw, flag, kw, documented):
    """The tokens of one flag: its exact name or a prefix of it, with its
    value after '=' or in the next token.  A documented call gives a value
    that starts with '-' in the next token after the exact name only."""
    option = cli._option(flag)
    name = draw(st.sampled_from([option] * 3 + [option[:k] for k in range(3, len(option))]))
    if kw.get("action") == "store_true":
        return [draw(st.sampled_from([name] * 4 + [name + "=", name + "=x"]))]
    value = draw(st.sampled_from(INTS if kw.get("type") is cli.ascii_int else PLAIN + DASHED))
    if draw(st.booleans()) or (documented and name != option and value.startswith("-")):
        return [f"{name}={value}"]
    return [name, value]


@st.composite
def cli_argvs(draw, documented):
    """argv of [shared flags] module command [flags], with repeats, unknown
    and missing flags, ambiguous prefixes, bad values and stray tokens; a
    call that is not documented may also get a flag of another command, a
    value that starts with '-' after a prefix, '--', help or a shared flag
    between the module and the command."""
    module = draw(st.sampled_from(sorted(cli.COMMANDS)))
    command = draw(st.sampled_from(sorted(cli.COMMANDS[module])))
    flags = {**cli.SHARED, **cli.COMMANDS[module][command][1]}
    names = [f for f, kw in flags.items() if kw.get("required") and draw(st.integers(0, 7))]
    names += draw(st.lists(st.sampled_from(sorted(flags)), max_size=3))
    if not documented and draw(st.booleans()):
        others = {f: kw for commands in cli.COMMANDS.values()
                  for _, own in commands.values() for f, kw in own.items()}
        flags = {**others, **flags}
        names.append(draw(st.sampled_from(sorted(others))))
    tokens = [t for f in draw(st.permutations(names))
              for t in draw(flag_tokens(f, flags[f], documented))]
    lead = [t for f in draw(st.lists(st.sampled_from(sorted(cli.SHARED)), max_size=2))
            for t in draw(flag_tokens(f, cli.SHARED[f], documented))]
    argv = lead + [module, command] + tokens
    stray = ["x", "--bogus", "--bogus=1", "bogus"] + \
        ([] if documented else ["--", "-h", "--he", "--pretty", "--approx=3"])
    tok = draw(st.sampled_from([None] * len(stray) * 2 + stray))
    if tok is not None:
        argv.insert(draw(st.integers(0, len(argv))), tok)
    return argv


@READER_SETTINGS
@given(cli_argvs(documented=False))
def test_the_reader_takes_what_argparse_takes(argv):
    """Every argv the reader takes, argparse takes to the same namespace."""
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == _argparse_vars(argv), argv


@READER_SETTINGS
@given(cli_argvs(documented=True))
def test_argparse_takes_what_the_reader_takes(argv):
    """Over the forms the reader documents, it takes every argv that
    argparse takes, to the same namespace."""
    read = cli._read(argv)
    assert (read and vars(read)) == _argparse_vars(argv), argv


@pytest.mark.parametrize("argv", [
    ["field", "--pretty", "eval", "--expr", "1"],
    ["field", "eval", "--expr", "1", "--"],
    ["field", "eval", "--ex", "-1"],
    ["finite", "conjgraph", "--group", "(0 1)", "--table", "[[0]]", "--g1", "1", "--g3", "0"],
    ["--approx", "-1", "field", "eval", "--expr", "1"],
    ["field", "eval", "--expr", "1", "--pretty="],
    ["finite", "conjgraph", "--g", "1", "--g3", "0", "--group", "(0 1)"],
    ["field", "eval", "--he"],
])
def test_the_reader_declines(argv):
    assert cli._read(argv) is None


# -- the CLI contract on generated calls -------------------------------------

CONTRACT_SETTINGS = settings(derandomize=True, max_examples=400, deadline=None,
                             database=None)

ERROR_CODES = {cls.code for cls in RotagraphError.__subclasses__()} \
    - {"internal-inconsistency"}

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5).map(str)
scalars = st.one_of(rationals, st.integers(-3, 12).map(lambda k: f"sqrt({k})"),
                    st.tuples(rationals, st.integers(2, 7)).map(lambda t: f"{t[0]}+sqrt({t[1]})"),
                    st.sampled_from(["1/0", "sqrt(", "", "x"]))
points = st.tuples(rationals, rationals, rationals).map(",".join)
groups = st.sampled_from(["(0 1);(0 1 2)", "(0 1 2);(0 1)", "(0 1 2 3);(0 1)",
                          "(0 1)(2 3);(0 2)(1 3)", "(0 1", "()", ""])
# JSON values that are no expression: a float, a bool, null, a list, an object
ODD_JSON = (1.5, True, None, [1], {"x": 1})
rational_entries = st.one_of(st.integers(-3, 3), rationals)
entries = st.one_of(rational_entries,
                    st.sampled_from(["sqrt(2)", "-sqrt(3)", "sqrt(3)/2", "1+sqrt(2)"]))


@st.composite
def matrices(draw):
    """A 3x3 matrix of small ints, rational strings and sqrt(2)/sqrt(3)
    entries as JSON, perhaps with an entry that is no expression, a row
    too many or too few, a row too short, flat, a scalar, or cut short."""
    pool = draw(st.sampled_from([rational_entries, entries]))
    rows = [[draw(pool) for _ in range(3)] for _ in range(3)]
    mutation = draw(st.sampled_from([None] * 5 + ["entry", "rows", "row", "flat", "scalar",
                                                  "cut"]))
    if mutation == "entry":
        rows[draw(st.integers(0, 2))][draw(st.integers(0, 2))] = draw(st.sampled_from(
            ODD_JSON + ("", "x", "1/0")))
    elif mutation == "rows":
        rows = rows[:draw(st.integers(0, 2))] if draw(st.booleans()) else rows + [rows[0]]
    elif mutation == "row":
        del rows[draw(st.integers(0, 2))][-1]
    elif mutation == "flat":
        rows = rows[0]
    elif mutation == "scalar":
        rows = draw(st.sampled_from(("5", *ODD_JSON)))
    text = json.dumps(rows)
    return text[:draw(st.integers(0, len(text) - 1))] if mutation == "cut" else text


@st.composite
def graphs(draw):
    """Graph JSON on at most 5 vertices, perhaps with a loop, an index out
    of range, an edge that is no pair, a key missing or one too many, or a
    vertex count that is no count."""
    n = draw(st.integers(0, 5))
    vertex = st.integers(0, max(n - 1, 0))
    obj = {"n": n, "edges": draw(st.lists(st.lists(vertex, min_size=2, max_size=2),
                                          max_size=8))}
    mutation = draw(st.sampled_from([None] * 4 + ["loop", "range", "pair", "missing",
                                                  "extra", "n"]))
    if mutation == "loop":
        v = draw(vertex)
        obj["edges"].append([v, v])
    elif mutation == "range":
        obj["edges"].append(draw(st.sampled_from([[0, n], [n + 3, 0], [-1, 0]])))
    elif mutation == "pair":
        obj["edges"].append(draw(st.sampled_from([[0], [0, 1, 2], [], "01", 0, [0, "1"],
                                                  [0, 1.0], [0, True]])))
    elif mutation == "missing":
        del obj[draw(st.sampled_from(["n", "edges"]))]
    elif mutation == "extra":
        obj[draw(st.sampled_from(["x", "N", "vertices"]))] = draw(st.sampled_from(ODD_JSON))
    elif mutation == "n":
        obj["n"] = draw(st.sampled_from([-1, "3", 2.0, None, False, 10 ** 6]))
    return json.dumps(obj)


# text that JSON output escapes: non-ASCII letters and digits, a character
# past the BMP, quotes, a backslash, control characters and DEL
ESCAPED = st.sampled_from(["\u00e9", "\u0661", "\U0001d7d9", "\U0001f600", '"', "'",
                           "\\", "\x01", "\n", "\t", "\x7f", "\u2028"])


@st.composite
def contract_argvs(draw):
    """A cheap call: an expression, a comparison, a distance of rational
    points, an equidistant point or a geodesic step between them at
    cos l = 4/5, 7/8 or sqrt(3)/2, Cauchy-Frobenius or Jordan on S3 and
    S4, a fixed point or an orthogonality check of a 3x3 matrix, or a
    rotary, automorphism or bipartite check of a graph on at most 5
    vertices; perhaps with a shared flag, before the module or after the
    command, and a value replaced, one with a character put in that JSON
    output escapes, a flag dropped or one made up."""
    kind = draw(st.sampled_from(["eval", "compare", "dist", "equidistant", "step", "cf",
                                 "jordan", "fixed-point", "check-orthogonal", "rotary",
                                 "automorphisms", "bipartite"]))
    if kind == "eval":
        argv = ["field", "eval", "--expr", draw(scalars)]
    elif kind == "compare":
        argv = ["field", "compare", "--a", draw(scalars), "--b", draw(scalars)]
    elif kind == "dist":
        argv = ["plane", "dist", "--p", draw(points), "--q", draw(points)]
    elif kind in ("equidistant", "step"):
        argv = ["plane", kind, "--p", draw(points), "--q", draw(points), "--cos-l",
                draw(st.sampled_from(["4/5", "7/8", "sqrt(3)/2"]))]
    elif kind in cli.COMMANDS["iso"]:
        argv = ["iso", kind, "--matrix", draw(matrices())]
    elif kind in ("rotary", "automorphisms", "bipartite"):
        argv = ["finite", kind, "--graph", draw(graphs())]
    else:
        argv = ["finite", kind, "--group", draw(groups)] + draw(st.sampled_from(
            [[], [], ["--degree", "5"], ["--degree", "-1"]]))
    argv += draw(st.sampled_from([[]] * 4 + [["--pretty"], ["--approx", "8"],
                                             ["--approx", "-1"], ["--seed", "x"]]))
    mutation = draw(st.sampled_from([None] * 6 + ["value", "drop", "bogus", "text"]))
    if mutation == "value":
        argv[3] = draw(st.sampled_from(["--pretty", "-5,1", "{", "[1]", "1,2", "-"]))
    elif mutation == "drop":
        del argv[2:4]
    elif mutation == "bogus":
        argv.append("--bogus")
    elif mutation == "text":
        at = draw(st.integers(0, len(argv[3])))
        argv[3] = argv[3][:at] + draw(ESCAPED) + argv[3][at:]
    return draw(st.sampled_from([[]] * 3 + [["--pretty"]])) + argv


@CONTRACT_SETTINGS
@given(contract_argvs())
def test_generated_calls_keep_the_cli_contract(argv):
    """One JSON object on stdout with exit 0 or 1 (an error object from the
    documented codes for 1), in the bytes json.dumps gives it, indented
    under --pretty; nothing on stdout with exit 2, no traceback, and
    SIGINT's handler as the call found it."""
    handler = signal.getsignal(signal.SIGINT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    assert signal.getsignal(signal.SIGINT) is handler, argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert not out.getvalue() and "usage:" in err.getvalue(), argv
        return
    assert code in (0, 1), argv
    obj = json.loads(out.getvalue())    # one JSON object, nothing after it
    assert isinstance(obj, dict), argv
    indent = 2 if "--pretty" in argv else None
    assert out.getvalue() == json.dumps(obj, indent=indent) + "\n", argv
    assert ("error" in obj) == (code == 1), argv
    if code == 1:
        assert obj["error"] in ERROR_CODES, argv
