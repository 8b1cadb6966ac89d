"""Command-line front end.  JSON out, expression-grammar strings in.

`COMMANDS` is the one table of modules, commands, handlers and flags.  A
well-formed call is read straight from it (`_read`), with no argparse
import and no parser built.  Every other argv, help and each usage error
among them, goes to argparse (`_parse`), which builds the parsers of every
module but the command parsers of the module its argv names only, since
argparse descends into that one alone.  This module imports no layer at its
top: once argv is read, a call imports the layers of its module alone
(`_import_layers`), so help and usage errors load none, and a finite call
loads no algebraic kernel.

The answer is JSON text written by `_encode`, in the bytes json.dumps gives
it (ASCII only, two-space indents under --pretty), so json is imported only
to read a JSON input (`_json`: a matrix, a graph, a group table or a JSON
point).  SIGINT's handler is set through `_signal`, the interpreter's own
module, which it loads before site; `signal` adds only enum wrappers to it.

A process of its own, `python -m rotagraph.cli` or the `rotagraph`
console script, ends through `run`: once the answer is written it flushes
stdout and stderr and calls `os._exit`, so the interpreter does not tear
down the modules and objects the call loaded, and no atexit handler, weakref
finalizer or `__del__` runs (the package defines none).  `main` returns the
exit code to a caller in-process.

Exit codes: 0 success, 1 domain error (JSON error object on stdout) or an
answer stdout could not take, 2 usage error, 130 interrupted.
"""

import _signal
import os
import random
import re
import sys
import types

from .errors import (
    BoundExceededError, OutOfRangeError, ParseError, RotagraphError, ascii_int, brief, read_int,
)

#: the largest --approx BITS: rendering costs about BITS bisections of each
#: value's interval
MAX_APPROX_BITS = 4096

#: the largest iso sample-edges --count: a pair costs about a millisecond at
#: cos l = 4/5 on a shared 2-core x86 VM
MAX_SAMPLE_PAIRS = 10000


def _approx_str(v, bits):
    import mpmath   # only --approx output renders decimals
    fr = algebraic.to_float(v, bits)
    digits = max(3, int(bits * 0.30103) + 1)
    with mpmath.workprec(bits + 16):
        return mpmath.nstr(mpmath.mpf(fr.numerator) / fr.denominator, digits)


#: the values of a result that render as they are, or element by element
_JSON = (str, int, float, type(None), dict, list, tuple)


def _scalar(obj):
    """The AlgReal of an exact scalar (an AlgReal or a DistCos), else None.
    JSON values answer before any layer's type is looked up, and AlgReal
    before DistCos: a finite result renders with no layer loaded and a
    field result with no elliptic."""
    if isinstance(obj, _JSON):
        return None
    if isinstance(obj, algebraic.AlgReal):
        return obj
    return obj.value if isinstance(obj, elliptic.DistCos) else None


def _render(obj, bits):
    """Exact values -> expression strings; with --approx, add parallel
    decimal fields next to dictionary entries."""
    value = _scalar(obj)
    if value is not None:
        return expr.to_expr(value)
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out[k] = _render(v, bits)
            value = _scalar(v) if bits else None
            if value is not None:
                out[k + "_approx"] = _approx_str(value, bits)
        return out
    if isinstance(obj, (list, tuple)):
        return [_render(v, bits) for v in obj]
    if not isinstance(obj, _JSON) and isinstance(obj, elliptic.ProjPoint):
        x, y, z = obj.lift
        return _render({"x": x, "y": y, "z": z}, bits)
    return obj


#: the control characters JSON text writes with a short escape
_SHORT_ESCAPES = {"\b": "\\b", "\t": "\\t", "\n": "\\n", "\f": "\\f", "\r": "\\r"}


def _escape(c):
    """A character outside printable ASCII as JSON text escapes it: one of
    the short escapes, else \\u and four lowercase hex digits, a surrogate
    pair above the BMP."""
    if c in _SHORT_ESCAPES:
        return _SHORT_ESCAPES[c]
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000
    return f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}"


def _string(s):
    """s as a JSON string, escaped as json.dumps escapes it."""
    s = s.replace("\\", "\\\\").replace('"', '\\"')
    if not (s.isascii() and s.isprintable()):
        s = "".join(c if " " <= c <= "~" else _escape(c) for c in s)
    return f'"{s}"'


def _encode(obj, indent=None, level=0):
    """The JSON text of obj, a tree of str, int, bool, None, list, tuple and
    dict values: the bytes of json.dumps(obj, indent=indent), ASCII only,
    keys that are int, bool or None written as strings.  TypeError for any
    other value or key, a float among them."""
    if isinstance(obj, str):
        return _string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        items = []
        for k, v in obj.items():
            if not isinstance(k, (str, int, type(None))):
                raise TypeError(f"keys must be str, int, bool or None, not {type(k).__name__}")
            key = k if isinstance(k, str) else _encode(k)
            items.append(f"{_string(key)}: {_encode(v, indent, level + 1)}")
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_encode(v, indent, level + 1) for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    if indent is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    inner = "\n" + " " * (indent * (level + 1))
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + " " * (indent * level) + brackets[1])


def _dumps(obj, args):
    return _encode(_render(obj, args.approx), 2 if args.pretty else None)


def _run(args):
    """The JSON text and exit code of one command: its result or its error."""
    try:
        if args.approx and args.approx > MAX_APPROX_BITS:
            raise BoundExceededError(
                f"--approx {brief(args.approx)} exceeds the budget of {MAX_APPROX_BITS} bits")
        return _dumps(args.fn(args), args), 0
    except RotagraphError as e:
        return _dumps({"error": e.code, "detail": str(e)}, args), 1
    except (ValueError, KeyError) as e:     # json.JSONDecodeError among them
        return _dumps({"error": "parse-error", "detail": str(e)}, args), 1


def _json(text):
    """JSON input, its integers read as expression literals are; nesting
    past the interpreter's recursion limit is bound-exceeded."""
    import json     # only the calls that take JSON input load it
    try:
        return json.loads(text, parse_int=read_int)
    except RecursionError:
        raise BoundExceededError("JSON input nested past the recursion limit") from None


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
    indices = [read_int(t) for t in re.findall(r"[0-9]+", text)]
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
        i = read_int(text)
    except ValueError:
        raise ParseError(f"unknown element {brief(text)}") from None
    if not 0 <= i < grp.order:
        raise ParseError("element index out of range")
    return i


# -- field --------------------------------------------------------------------

def cmd_field_eval(args):
    return {"value": expr.parse(args.expr)}


def cmd_field_compare(args):
    r = algebraic.compare(expr.parse(args.a), expr.parse(args.b))
    return {"result": {algebraic.LESS: "less", algebraic.EQUAL: "equal"}.get(r, "greater")}


def cmd_field_roots(args):
    try:
        coeffs = tuple(read_int(c) for c in args.poly.split(","))
    except ValueError:
        raise ParseError(f"bad coefficient list {brief(args.poly)}: expected "
                         "comma-separated integers") from None
    return {"roots": algebraic.real_roots(coeffs)}


def _angle_string(k, m):
    if k == 0:
        return "0"
    num = "pi" if k == 1 else f"{k}pi"
    return num if m == 1 else f"{num}/{m}"


def cmd_field_angle_rational(args):
    witness = algebraic.rational_angle_witness(expr.parse(args.cos))
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
        raise OutOfRangeError(f"--count must not be negative, got {brief(args.count)}")
    if args.count > MAX_SAMPLE_PAIRS:
        raise BoundExceededError(
            f"--count {brief(args.count)} exceeds the budget of {MAX_SAMPLE_PAIRS} pairs")
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
              "degree": {"type": ascii_int, "default": None}}
#: the two ways to give finite conjgraph its group, of which a call takes one
_SOURCE = {"table": {"default": None, "help": "row-major multiplication table JSON"},
           "group": {"default": None}}

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
        "ellncos": (cmd_plane_ellncos, {"cos_l": _REQ, "n": {**_REQ, "type": ascii_int}}),
        "witness": (cmd_plane_witness, {"p": _REQ, "q": _REQ, "cos_l": _REQ,
                                        "n": {**_REQ, "type": ascii_int}}),
    },
    "iso": {
        "fixed-point": (cmd_iso_fixed_point, {"matrix": _REQ}),
        "check-orthogonal": (cmd_iso_check_orthogonal, {"matrix": _REQ}),
        "sample-edges": (cmd_iso_sample_edges, {"matrix": _REQ, "cos_l": _REQ,
                                                "count": {"type": ascii_int, "default": 10}}),
    },
    "graph": {
        "edge": (cmd_graph_edge, {"p": _REQ, "q": _REQ, "cos_l": _REQ}),
        "distance": (cmd_graph_distance, {"p": _REQ, "q": _REQ, "cos_l": _REQ}),
        "path": (cmd_graph_path, {"p": _REQ, "q": _REQ, "cos_l": _REQ}),
        "diameter": (cmd_graph_diameter, {"cos_l": _REQ}),
        "validate": (cmd_graph_validate, {"cos_l": _REQ}),
        "choose-ell": (cmd_graph_choose_ell, {"diameter": {**_REQ, "type": ascii_int}}),
    },
    "finite": {
        "cf": (cmd_finite_cf, _GEN_FLAGS),
        "jordan": (cmd_finite_jordan, _GEN_FLAGS),
        "subgroups": (cmd_finite_subgroups, _GEN_FLAGS),
        "rotary": (cmd_finite_rotary, {"graph": _REQ}),
        "automorphisms": (cmd_finite_automorphisms, {"graph": _REQ}),
        "bipartite": (cmd_finite_bipartite, {"graph": _REQ}),
        "conjgraph": (cmd_finite_conjgraph, {"degree": {"type": ascii_int, "default": None},
                                             "g1": _REQ, "g3": _REQ, **_SOURCE}),
        "census": (cmd_finite_census, {"n_max": {**_REQ, "type": ascii_int}}),
    },
}

#: the flags of every command, which a call gives before its module or after
#: its command
SHARED = {"pretty": {"action": "store_true", "default": False,
                     "help": "indent JSON output"},
          "approx": {"type": ascii_int, "default": None, "metavar": "BITS",
                     "help": "add decimal approximations at BITS precision"},
          "seed": {"type": ascii_int, "default": 0, "help": "seed for randomized subcommands"}}


def _option(flag):
    return "--" + flag.replace("_", "-")


def _defaults(flags):
    return {f: kw.get("default") for f, kw in flags.items()}


def _named(argv):
    """The module argv names: its first token that names one, else None."""
    return next((t for t in argv if t in COMMANDS), None)


def _options(module):
    """Every option a call of `module` can name (help, the shared flags and
    the flags of each of its commands), mapped to whether it takes a value."""
    flags = dict(SHARED)
    for _, own in COMMANDS.get(module, {}).values():
        flags.update(own)
    return {"-h": False, "--help": False,
            **{_option(f): kw.get("action") != "store_true" for f, kw in flags.items()}}


def _is_option(tok, options):
    """Whether tok, up to any '=', is one of `options` or an abbreviation
    of one of its long options."""
    name = tok.split("=", 1)[0]
    if name.startswith("--"):
        return any(o.startswith(name) for o in options)
    return name[:2] in options


def _read_flags(argv, i, flags, options, out):
    """Read the tokens of argv from i on that start with '-' as options of
    `flags` (name -> keyword arguments) into `out`; the index of the first
    token that does not, or None for a token that names no option of
    `flags` in full or by a unique prefix (help among them), or whose value
    is missing or bad.  A value is the rest of the token after '=', else
    the next token; one that starts with '-' must follow the exact name of
    its option and be none of `options`, nor abbreviate one, as for
    _attach_values."""
    table = {_option(f): f for f in flags}
    while i < len(argv) and argv[i].startswith("-"):
        name, eq, value = argv[i].partition("=")
        option = name
        if name not in table and name.startswith("--"):
            hits = [o for o in table if o.startswith(name)]
            option = hits[0] if len(hits) == 1 else None
        flag = table.get(option)
        if flag is None:
            return None
        kw = flags[flag]
        if kw.get("action") == "store_true":
            if eq:
                return None
            value = True
        elif not eq:
            if i + 1 == len(argv):
                return None
            i, value = i + 1, argv[i + 1]
            if value.startswith("-") and (name != option or _is_option(value, options)):
                return None
        if kw.get("type") is ascii_int:
            try:
                value = ascii_int(value)
            except ValueError:
                return None
        out[flag] = value
        i += 1
    return i


def _read(argv):
    """The namespace argparse gives argv, read straight from COMMANDS for a
    call of the form [shared flags] module command [flags], where the flags
    after the command are its own and the shared ones.  A flag is named in
    full or by a unique prefix, with its value after '=' or in the next
    token, and the last of a repeated flag wins, as in argparse.  None for
    anything else: help, every usage error, a shared flag between the module
    and the command, '--', and a value that starts with '-' after a prefix.
    For those argparse reads argv (_parse)."""
    module = _named(argv)
    options = _options(module)
    args = _defaults(SHARED)
    i = _read_flags(argv, 0, SHARED, options, args)
    if i is None or argv[i:i + 1] != [module] or i + 1 == len(argv) \
            or argv[i + 1] not in COMMANDS[module]:
        return None
    fn, flags = COMMANDS[module][argv[i + 1]]
    args.update(module=module, cmd=argv[i + 1], fn=fn, **_defaults(flags))
    if _read_flags(argv, i + 2, {**SHARED, **flags}, options, args) != len(argv) \
            or any(kw.get("required") and args[f] is None for f, kw in flags.items()) \
            or all(args.get(f) is not None for f in _SOURCE) \
            or (args["approx"] is not None and args["approx"] < 0):
        return None
    return types.SimpleNamespace(**args)


def _build_parser(argv):
    """The argparse parser for argv, the path of help, of every usage error
    and of any other argv that _read declines.  It holds every module, and
    the command parsers of the module that argv names only (argparse
    descends into that one alone); only the shared flags and their values
    can precede the module, and a module name read as a flag's value is a
    usage error of the top-level parser before any module is entered."""
    import argparse

    class Parser(argparse.ArgumentParser):     # its subparsers take its class
        def print_help(self, file=None):
            # argparse drops a failed write of help; this one raises it, so
            # that `run` sees a stdout that cannot take the text
            print(self.format_help(), end="", file=file)

    common = argparse.ArgumentParser(add_help=False)
    for flag, kw in SHARED.items():
        common.add_argument(_option(flag), **{**kw, "default": argparse.SUPPRESS})
    ap = Parser(prog="rotagraph", parents=[common],
                description="exact unit-distance graph toolkit")
    top = ap.add_subparsers(dest="module", required=True)
    named = _named(argv)
    for module, commands in COMMANDS.items():
        mp = top.add_parser(module)
        if module != named:
            continue
        cmds = mp.add_subparsers(dest="cmd", required=True)
        for name, (fn, flags) in commands.items():
            p = cmds.add_parser(name, parents=[common])
            source = p.add_mutually_exclusive_group() if _SOURCE.keys() <= flags.keys() \
                else p
            for flag, kw in flags.items():
                (source if flag in _SOURCE else p).add_argument(_option(flag), **kw)
            p.set_defaults(fn=fn)
    return ap


def _parse(argv):
    """argv read by argparse (_build_parser): the namespace, or SystemExit
    after help (0) or a usage error (2)."""
    ap = _build_parser(argv)
    # the shared flags use SUPPRESS defaults so they work on either side of
    # the subcommand; the namespace holds their real defaults
    args = ap.parse_args(_attach_values(argv, _options(_named(argv))),
                         types.SimpleNamespace(**_defaults(SHARED)))
    if args.approx is not None and args.approx < 0:
        ap.error(f"approximation BITS must not be negative, got {brief(args.approx)}")
    return args


def _attach_values(argv, options):
    """argv with each flag that takes a value joined to the next token as
    --flag=value when that token starts with '-' but is none of the
    parser's options nor an abbreviation of one, such as the coefficients
    -5,1, which argparse would take for an unknown option."""
    out, i = [], 0
    while i < len(argv):
        tok, value = argv[i], argv[i + 1] if i + 1 < len(argv) else ""
        if options.get(tok) and value.startswith("-") and not _is_option(value, options):
            tok = f"{tok}={value}"
            i += 1
        out.append(tok)
        i += 1
    return out


def _import_layers(module):
    """Bind, as globals here, the layers that the commands of `module` run:
    finite alone for finite; algebraic and expr for field; elliptic too for
    plane, iso and graph, with isometry for iso and graph for graph."""
    global algebraic, elliptic, expr, finite, graph, isometry
    if module == "finite":
        from . import finite
        return
    from . import algebraic, expr
    if module != "field":
        from . import elliptic
    if module == "iso":
        from . import isometry
    if module == "graph":
        from . import graph


def _on_sigint(handler):
    try:
        _signal.signal(_signal.SIGINT, handler)
    except ValueError:
        pass  # not the main thread


def main(argv=None):
    """Run one call and return its exit code; help and usage errors raise
    argparse's SystemExit.  A call given argv, from within a program, leaves
    the SIGINT handler as it found it, also when argparse exits; one that
    reads sys.argv, a process of its own, ignores SIGINT from the moment its
    answer is fixed until the process exits.  Such a process ends through
    `run`, with no interpreter teardown."""
    if argv is None:
        return _main(sys.argv[1:])
    handler = _signal.getsignal(_signal.SIGINT)
    try:
        return _main(list(argv))
    finally:
        if handler is not None:     # None: not set from Python, so not ours to restore
            _on_sigint(handler)


def _main(argv):
    # restore interruptibility even when spawned with SIGINT ignored
    _on_sigint(_signal.default_int_handler)
    args = _read(argv) or _parse(argv)
    # SIGINT before the answer is rendered cancels it (exit 130); once the
    # text is fixed SIGINT is ignored, so the answer is printed whole and the
    # exit code stands
    try:
        _import_layers(args.module)
        text, code = _run(args)
        _on_sigint(_signal.SIG_IGN)
    except KeyboardInterrupt:
        _on_sigint(_signal.SIG_IGN)
        text, code = _dumps({"error": "interrupted",
                             "detail": "cancelled before completion"}, args), 130
    print(text)     # prints nothing when fd 1 was closed (sys.stdout is None)
    return code


def _flushed(stream):
    """Whether stream took all that was written to it: False when its reader
    has gone, or when it is None (its descriptor was closed at start-up)."""
    try:
        stream.flush()
    except (AttributeError, OSError):
        return False
    return True


def run():
    """The process entry of `python -m rotagraph.cli` and of the console
    script: main over sys.argv, with argparse's exit code for help (0) and
    usage errors (2), then stdout and stderr flushed and `os._exit`, which
    skips the interpreter's teardown.  A call whose stdout cannot take its
    output exits 1, with no traceback; a usage error writes to stderr alone
    and keeps exit 2."""
    try:
        code = main()
    except SystemExit as e:
        code = e.code
    except OSError:     # writing the answer or help, the one I/O of a call
        code = 1
    if not _flushed(sys.stdout) and code != 2:
        code = 1
    _flushed(sys.stderr)
    os._exit(code)


if __name__ == "__main__":
    run()
