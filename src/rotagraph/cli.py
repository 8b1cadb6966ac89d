"""Command-line front end.  JSON out, expression-grammar strings in.

`COMMANDS` is the one table of modules, commands, handlers and flags.  A
call builds the parsers of every module but the command parsers of the
module its argv names only, since argparse descends into that one alone.

Exit codes: 0 success, 1 domain error (JSON error object on stdout),
2 usage error, 130 interrupted.
"""

import argparse
import json
import random
import re
import signal
import sys

from . import elliptic, expr, finite, graph, isometry
from .algebraic import (
    AlgReal, EQUAL, LESS, compare, rational_angle_witness, real_roots, to_float,
)
from .errors import BoundExceededError, OutOfRangeError, ParseError, RotagraphError

#: the largest --approx BITS: rendering costs about BITS bisections of each
#: value's interval
MAX_APPROX_BITS = 4096

#: the largest iso sample-edges --count: a pair costs about a millisecond at
#: cos l = 4/5 on a shared 2-core x86 VM
MAX_SAMPLE_PAIRS = 10000


def _approx_str(v, bits):
    import mpmath   # only --approx output renders decimals
    fr = to_float(v, bits)
    digits = max(3, int(bits * 0.30103) + 1)
    with mpmath.workprec(bits + 16):
        return mpmath.nstr(mpmath.mpf(fr.numerator) / fr.denominator, digits)


def _render(obj, bits):
    """Exact values -> expression strings; with --approx, add parallel
    decimal fields next to dictionary entries."""
    if isinstance(obj, elliptic.ProjPoint):
        x, y, z = obj.lift
        return _render({"x": x, "y": y, "z": z}, bits)
    if isinstance(obj, elliptic.DistCos):
        return _render(obj.value, bits)
    if isinstance(obj, AlgReal):
        return expr.to_expr(obj)
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out[k] = _render(v, bits)
            if bits and isinstance(v, (AlgReal, elliptic.DistCos)):
                val = v.value if isinstance(v, elliptic.DistCos) else v
                out[k + "_approx"] = _approx_str(val, bits)
        return out
    if isinstance(obj, (list, tuple)):
        return [_render(v, bits) for v in obj]
    return obj


def _dumps(obj, args):
    return json.dumps(_render(obj, args.approx), indent=2 if args.pretty else None,
                      sort_keys=False)


def _run(args):
    """The JSON text and exit code of one command: its result or its error."""
    try:
        if args.approx and args.approx > MAX_APPROX_BITS:
            raise BoundExceededError(
                f"--approx {args.approx} exceeds the budget of {MAX_APPROX_BITS} bits")
        return _dumps(args.fn(args), args), 0
    except RotagraphError as e:
        return _dumps({"error": e.code, "detail": str(e)}, args), 1
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        return _dumps({"error": "parse-error", "detail": str(e)}, args), 1


def _json(text):
    """JSON input, its integers read as expression literals are."""
    return json.loads(text, parse_int=expr.read_int)


def _parse_point(text):
    text = text.strip()
    if text.startswith("{"):
        return elliptic.point_from_json(_json(text))
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError("a point is JSON {x,y,z} or a comma triple")
    return elliptic.make_point(*(expr.parse(p) for p in parts))


def _parse_matrix(text):
    return isometry.matrix_from_json(_json(text))


def _parse_group(text, degree=None):
    """Permutation generators: cycle strings separated by semicolons."""
    parts = [p for p in (s.strip() for s in text.split(";")) if p]
    if not parts:
        raise ParseError("empty generator list")
    # every index read as expression literals are, so one past Python's
    # digit limit is bound-exceeded
    indices = [expr.read_int(t) for t in re.findall(r"\d+", text)]
    if degree is None:
        degree = 1 + max(indices, default=0)
    gens = [finite.Permutation.from_cycles(p, degree) for p in parts]
    return finite.PermGroup(degree, gens)


def _parse_graph(text):
    return finite.FiniteGraph.from_json(_json(text))


def _parse_finite_group(args):
    if args.table:
        return finite.FiniteGroup(_json(args.table))
    if args.group:
        return finite.FiniteGroup.from_permutations(
            list(_parse_group(args.group, args.degree).generators))
    raise ParseError("supply --table or --group")


def _resolve_element(grp, text):
    text = text.strip()
    if text in grp.names:
        return grp.names.index(text)
    try:
        i = expr.read_int(text)
    except ValueError:
        raise ParseError(f"unknown element {text!r}") from None
    if not 0 <= i < grp.order:
        raise ParseError("element index out of range")
    return i


# -- field --------------------------------------------------------------------

def cmd_field_eval(args):
    return {"value": expr.parse(args.expr)}


def cmd_field_compare(args):
    r = compare(expr.parse(args.a), expr.parse(args.b))
    return {"result": {LESS: "less", EQUAL: "equal"}.get(r, "greater")}


def cmd_field_roots(args):
    try:
        coeffs = tuple(expr.read_int(c) for c in args.poly.split(","))
    except ValueError:
        raise ParseError(f"bad coefficient list {args.poly!r}: expected "
                         "comma-separated integers") from None
    return {"roots": real_roots(coeffs)}


def _angle_string(k, m):
    if k == 0:
        return "0"
    num = "pi" if k == 1 else f"{k}pi"
    return num if m == 1 else f"{num}/{m}"


def cmd_field_angle_rational(args):
    witness = rational_angle_witness(expr.parse(args.cos))
    if witness is None:
        return {"rational_angle": False}
    k, m = witness
    return {"rational_angle": True, "witness": _angle_string(k, m)}


# -- plane --------------------------------------------------------------------

def cmd_plane_dist(args):
    return {"cos_d": elliptic.dist_cos(_parse_point(args.p), _parse_point(args.q))}


def cmd_plane_equidistant(args):
    pt = elliptic.equidistant_point(_parse_point(args.p), _parse_point(args.q),
                                    expr.parse(args.cos_l))
    return {"point": pt}


def cmd_plane_step(args):
    pt = elliptic.geodesic_step(_parse_point(args.p), _parse_point(args.q),
                                expr.parse(args.cos_l))
    return {"point": pt}


def cmd_plane_ellncos(args):
    return {"cos_ln": elliptic.ell_n_cos(expr.parse(args.cos_l), args.n)}


def cmd_plane_witness(args):
    cos_l = expr.parse(args.cos_l)
    o, chain = elliptic.construct_ell_n_witness(
        _parse_point(args.p), _parse_point(args.q), cos_l, args.n)
    return {"center": o, "chain": list(chain),
            "verified": elliptic.verify_ell_n_witness(o, chain, cos_l)}


# -- iso ----------------------------------------------------------------------

def cmd_iso_fixed_point(args):
    m = _parse_matrix(args.matrix)
    return {"point": isometry.fixed_point(m)}


def cmd_iso_check_orthogonal(args):
    m = _parse_matrix(args.matrix)
    return {"orthogonal": isometry.is_orthogonal(m), "det": m.det()}


def cmd_iso_sample_edges(args):
    if args.count < 0:
        raise OutOfRangeError(f"--count must not be negative, got {args.count}")
    if args.count > MAX_SAMPLE_PAIRS:
        raise BoundExceededError(
            f"--count {args.count} exceeds the budget of {MAX_SAMPLE_PAIRS} pairs")
    m = _parse_matrix(args.matrix)
    cos_l = elliptic.as_dist_cos(expr.parse(args.cos_l))
    rng = random.Random(args.seed)
    pairs = []
    for _ in range(args.count):
        p = elliptic.random_rational_point(rng)
        pairs.append((p, elliptic.random_point_at_distance(rng, p, cos_l)))
    return {"pairs": args.count,
            "preserves": isometry.preserves_edges_on_sample(m, cos_l, pairs)}


# -- graph --------------------------------------------------------------------

def cmd_graph_edge(args):
    spec = graph.GraphSpec(expr.parse(args.cos_l))
    return {"edge": graph.is_edge(spec, _parse_point(args.p), _parse_point(args.q))}


def cmd_graph_distance(args):
    spec = graph.GraphSpec(expr.parse(args.cos_l))
    k, cert = graph.graph_distance(spec, _parse_point(args.p), _parse_point(args.q))
    return {"distance": k, "certificate": cert}


def cmd_graph_path(args):
    spec = graph.GraphSpec(expr.parse(args.cos_l))
    p, q = _parse_point(args.p), _parse_point(args.q)
    path = graph.witness_path(spec, p, q)
    return {"length": len(path), "path": list(path.points),
            "verified": graph.verify_path(spec, path, p, q)}


def cmd_graph_diameter(args):
    spec = graph.GraphSpec(expr.parse(args.cos_l))
    k, cert = graph.diameter(spec)
    return {"diameter": k, "certificate": cert}


def cmd_graph_validate(args):
    spec = graph.GraphSpec(expr.parse(args.cos_l))
    return graph.validate_spec(spec)


def cmd_graph_choose_ell(args):
    spec = graph.choose_ell_for_diameter(args.diameter)
    k, cert = graph.diameter(spec)
    return {"cos_l": spec.cos_l, "diameter": k, "certificate": cert}


# -- finite -------------------------------------------------------------------

def cmd_finite_cf(args):
    g = _parse_group(args.group, args.degree)
    avg = finite.cauchy_frobenius(g)
    return {"orbit_count": finite.orbit_count(g),
            "average_fixed_points": str(avg)}


def cmd_finite_rotary(args):
    fg = _parse_graph(args.graph)
    return {"rotarily_transitive": finite.is_rotarily_transitive_graph(fg)}


def cmd_finite_jordan(args):
    g = _parse_group(args.group, args.degree)
    return {"witness": finite.jordan_witness(g).cycle_string()}


def cmd_finite_subgroups(args):
    g = _parse_group(args.group, args.degree)
    subs = finite.all_subgroups(g)
    return {"count": len(subs),
            "subgroups": [{"order": h.order,
                           "generators": [p.cycle_string() for p in h.generators],
                           "transitive": h.is_transitive()}
                          for h in subs]}


def cmd_finite_automorphisms(args):
    fg = _parse_graph(args.graph)
    aut = finite.graph_automorphisms(fg)
    return {"order": aut.order,
            "elements": [p.cycle_string() for p in aut.elements()]}


def cmd_finite_bipartite(args):
    fg = _parse_graph(args.graph)
    coloring = finite.is_bipartite(fg)
    return {"bipartite": coloring is not None, "coloring": coloring}


def cmd_finite_conjgraph(args):
    grp = _parse_finite_group(args)
    g1 = _resolve_element(grp, args.g1)
    g3 = _resolve_element(grp, args.g3)
    fg, action, diag = finite.conjugation_graph(grp, g1, g3)
    return {"graph": fg.to_json(),
            "action_order": action.order,
            "diagnostics": diag}


def cmd_finite_census(args):
    return finite.census(args.n_max)


# -- wiring -------------------------------------------------------------------

_REQ = {"required": True}
_GEN_FLAGS = {"group": {**_REQ, "help": "generators as cycle strings, ';'-separated"},
              "degree": {"type": int, "default": None}}

#: module -> command -> (handler, flags): each flag name maps to the keyword
#: arguments of its ``--flag-name`` option, in the order help lists them
COMMANDS = {
    "field": {
        "eval": (cmd_field_eval, {"expr": _REQ}),
        "compare": (cmd_field_compare, {"a": _REQ, "b": _REQ}),
        "roots": (cmd_field_roots, {"poly": {
            **_REQ, "help": "integer coefficients c0,c1,...,cn (ascending)"}}),
        "angle-rational": (cmd_field_angle_rational, {"cos": _REQ}),
    },
    "plane": {
        "dist": (cmd_plane_dist, {"p": _REQ, "q": _REQ}),
        "equidistant": (cmd_plane_equidistant, {"p": _REQ, "q": _REQ, "cos_l": _REQ}),
        "step": (cmd_plane_step, {"p": _REQ, "q": _REQ, "cos_l": _REQ}),
        "ellncos": (cmd_plane_ellncos, {"cos_l": _REQ, "n": {**_REQ, "type": int}}),
        "witness": (cmd_plane_witness, {"p": _REQ, "q": _REQ, "cos_l": _REQ,
                                        "n": {**_REQ, "type": int}}),
    },
    "iso": {
        "fixed-point": (cmd_iso_fixed_point, {"matrix": _REQ}),
        "check-orthogonal": (cmd_iso_check_orthogonal, {"matrix": _REQ}),
        "sample-edges": (cmd_iso_sample_edges, {"matrix": _REQ, "cos_l": _REQ,
                                                "count": {"type": int, "default": 10}}),
    },
    "graph": {
        "edge": (cmd_graph_edge, {"p": _REQ, "q": _REQ, "cos_l": _REQ}),
        "distance": (cmd_graph_distance, {"p": _REQ, "q": _REQ, "cos_l": _REQ}),
        "path": (cmd_graph_path, {"p": _REQ, "q": _REQ, "cos_l": _REQ}),
        "diameter": (cmd_graph_diameter, {"cos_l": _REQ}),
        "validate": (cmd_graph_validate, {"cos_l": _REQ}),
        "choose-ell": (cmd_graph_choose_ell, {"diameter": {**_REQ, "type": int}}),
    },
    "finite": {
        "cf": (cmd_finite_cf, _GEN_FLAGS),
        "jordan": (cmd_finite_jordan, _GEN_FLAGS),
        "subgroups": (cmd_finite_subgroups, _GEN_FLAGS),
        "rotary": (cmd_finite_rotary, {"graph": _REQ}),
        "automorphisms": (cmd_finite_automorphisms, {"graph": _REQ}),
        "bipartite": (cmd_finite_bipartite, {"graph": _REQ}),
        # --table or --group, one of them: added below as an exclusive pair
        "conjgraph": (cmd_finite_conjgraph, {"degree": {"type": int, "default": None},
                                             "g1": _REQ, "g3": _REQ}),
        "census": (cmd_finite_census, {"n_max": {**_REQ, "type": int}}),
    },
}


def _build_parser(argv):
    """The parser for argv and its options, each mapped to whether it takes
    a value: every module, and the commands of the module that argv names
    only (argparse descends into that one alone).  The module is argv's
    first token that names one; only the shared flags and their values can
    precede it, and a module name read as a flag's value is a usage error
    of the top-level parser before any module is entered."""
    options = {"-h": False, "--help": False}

    def add(parser, flag, **kw):
        options[flag] = parser.add_argument(flag, **kw).nargs != 0

    common = argparse.ArgumentParser(add_help=False)
    add(common, "--pretty", action="store_true",
        default=argparse.SUPPRESS, help="indent JSON output")
    add(common, "--approx", type=int, metavar="BITS",
        default=argparse.SUPPRESS, help="add decimal approximations at BITS precision")
    add(common, "--seed", type=int, default=argparse.SUPPRESS,
        help="seed for randomized subcommands")
    ap = argparse.ArgumentParser(prog="rotagraph", parents=[common],
                                 description="exact unit-distance graph toolkit")
    top = ap.add_subparsers(dest="module", required=True)
    named = next((t for t in argv if t in COMMANDS), None)
    for module, commands in COMMANDS.items():
        mp = top.add_parser(module)
        if module != named:
            continue
        cmds = mp.add_subparsers(dest="cmd", required=True)
        for name, (fn, flags) in commands.items():
            p = cmds.add_parser(name, parents=[common])
            for flag, kw in flags.items():
                add(p, "--" + flag.replace("_", "-"), **kw)
            p.set_defaults(fn=fn)
            if fn is cmd_finite_conjgraph:
                source = p.add_mutually_exclusive_group()
                add(source, "--table", default=None,
                    help="row-major multiplication table JSON")
                add(source, "--group", default=None)
    return ap, options


def _attach_values(argv, options):
    """argv with each flag that takes a value joined to the next token as
    --flag=value when that token starts with '-' but is none of the
    parser's options nor an abbreviation of one, such as the coefficients
    -5,1, which argparse would take for an unknown option."""
    def is_option(tok):
        name = tok.split("=", 1)[0]
        if name.startswith("--"):
            return any(o.startswith(name) for o in options)
        return name[:2] in options

    out, i = [], 0
    while i < len(argv):
        tok, value = argv[i], argv[i + 1] if i + 1 < len(argv) else ""
        if options.get(tok) and value.startswith("-") and not is_option(value):
            tok = f"{tok}={value}"
            i += 1
        out.append(tok)
        i += 1
    return out


def _on_sigint(handler):
    try:
        signal.signal(signal.SIGINT, handler)
    except ValueError:
        pass  # not the main thread


def main(argv=None):
    """Run one call.  A call given argv, from within a program, leaves the
    SIGINT handler as it found it, also when argparse exits (SystemExit); one
    that reads sys.argv, a process of its own, ignores SIGINT from the moment
    its answer is fixed until the process exits."""
    if argv is None:
        return _main(sys.argv[1:])
    handler = signal.getsignal(signal.SIGINT)
    try:
        return _main(list(argv))
    finally:
        if handler is not None:     # None: not set from Python, so not ours to restore
            _on_sigint(handler)


def _main(argv):
    # restore interruptibility even when spawned with SIGINT ignored
    _on_sigint(signal.default_int_handler)
    ap, options = _build_parser(argv)
    # the shared flags use SUPPRESS defaults so they work on either side of
    # the subcommand; the namespace holds their real defaults
    args = ap.parse_args(_attach_values(argv, options),
                         argparse.Namespace(pretty=False, seed=0, approx=None))
    if args.approx is not None and args.approx < 0:
        ap.error(f"approximation BITS must not be negative, got {args.approx}")
    # SIGINT before the answer is rendered cancels it (exit 130); once the
    # text is fixed SIGINT is ignored, so the answer is printed whole and the
    # exit code stands
    try:
        text, code = _run(args)
        _on_sigint(signal.SIG_IGN)
    except KeyboardInterrupt:
        _on_sigint(signal.SIG_IGN)
        text, code = _dumps({"error": "interrupted",
                             "detail": "cancelled before completion"}, args), 130
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
