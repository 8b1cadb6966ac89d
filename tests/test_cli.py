import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from rotagraph import cli

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


def test_cycle_index_too_long_to_read_is_bound_exceeded():
    # with --degree given, the cycle indices are read without inferring it
    nines = "9" * 5000
    for cmd in ("cf", "jordan"):
        proc = run("finite", cmd, "--group", f"(0 {nines})", "--degree", "3", check=False)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, cmd
        assert proc.stdout == ('{"error": "bound-exceeded", '
                               '"detail": "an integer of 5000 digits is too long to read"}\n')


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


def test_fixed_point_outside_the_eigenvalue_cases_is_a_precondition():
    # invertible, irrational characteristic coefficients, neither +1 nor -1
    # an eigenvalue: a domain limit, not a broken invariant
    proc = run("iso", "fixed-point", "--matrix",
               '[["sqrt(2)",0,0],[0,2,0],[0,0,3]]', check=False)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "precondition"


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


def test_a_call_builds_the_command_parsers_of_its_module_only(monkeypatch, capsys):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv, module, built in ((["field", "eval", "--expr", "1"], "field", 11),
                                (["finite", "cf", "--group", "(0 1)"], "finite", 15),
                                (["--help"], None, 7)):
        progs.clear()
        main_exit(capsys, argv)
        assert len(progs) == built, argv
        commands = [p for p in progs if p and len(p.split()) == 3]
        assert all(p.split()[1] == module for p in commands), argv
    # with no argv, main reads sys.argv once, for the builder and the parse
    monkeypatch.setattr(sys, "argv", ["rotagraph", "plane", "dist",
                                      "--p", "1,0,0", "--q", "4/5,3/5,0"])
    progs.clear()
    handler = signal.getsignal(signal.SIGINT)
    try:
        assert cli.main() == 0 and len(progs) == 12
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
