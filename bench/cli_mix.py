"""Seeded command lines for the `cli` workload and their exact checks.

Each call is a fresh ``python -m rotagraph.cli`` process, so every call pays
the import and starts with cold caches.  ``calls(seed)`` yields the calls
without end in a fixed cycle of kinds: most are cheap (start-up bound), one
in twelve is an input whose correct answer is a JSON domain error with exit
code 1, and the rest are construction-heavy.  The first call of every run is
``eval_deg25``, whose candidate degree exceeds 24; ``KNOWN_DEFECTS`` are run
once per run outside the timed loop and reported by name.

``contract_error`` applies the CLI contract (exit code, one JSON object on
stdout, no traceback on stderr); ``Checker.check`` then checks the answer
exactly through the library, re-parsing every printed expression.
"""

import itertools
import json
import random

from workloads import (RATIONAL_COS, act, conjugate, integer_matrix, rational_unit,
                       signed_permutation)

EXIT_CODES = (0, 1, 2, 130)

# 2^(1/5) + 3^(1/5): degree-25 candidate, above the threshold where root
# selection tries integer relations (mpmath.pslq) before factorising.
EVAL_DEG25 = "root(-2,0,0,0,0,1,0)+root(-3,0,0,0,0,1,0)"

_INT_MATRIX = ((1, 2, 0), (0, 1, 3), (1, 0, 1))

# Run once per run, outside the timed loop, and reported by name; each is
# expected to succeed.  The integer JSON entries (instead of expression
# strings) make the parser raise a TypeError that the CLI does not catch.
KNOWN_DEFECTS = {
    "iso_fixed_point_int_matrix": (
        "fixed_point", ["iso", "fixed-point", "--matrix", json.dumps(_INT_MATRIX)],
        _INT_MATRIX),
}

# One call of each kind; a 50-second run makes eval_deg25 and then this cycle
# once, so every subcommand group is measured in every run.
CYCLE = ("eval_low", "fixed_point", "error", "subgroups", "path", "census",
         "conjgraph", "eval_mid", "equidistant", "jordan", "cf", "dist")

# Transitive groups as (degree, generators): the subgroup lattice, Jordan
# and Cauchy-Frobenius calls use S5, which has 156 subgroups; conjugation
# graphs use S3.
_S5 = (5, ("(0 1)", "(0 1 2 3 4)"))
_S5_SUBGROUPS = 156
_S3 = (3, ("(0 1)", "(0 1 2)"))
# graphs on at most 5 vertices up to isomorphism: 1 + 2 + 4 + 11 + 34
_CENSUS_5 = 52
# the cycle's edge cosine for constructions and paths
_COS_L = RATIONAL_COS[0][0]

_NONSQUARES = (2, 3, 5, 6, 7, 10, 11, 13)


class Call:
    """One CLI invocation, the exit code it must give and what the exact
    check compares its answer with."""

    __slots__ = ("kind", "argv", "expect_exit", "expect")

    def __init__(self, kind, argv, expect_exit=0, expect=None):
        # "--p=-4/9,..." so that argparse never reads a value as an option
        out = []
        for tok in argv:
            if out and out[-1].startswith("--") and "=" not in out[-1] \
                    and not tok.startswith("--"):
                out[-1] += "=" + tok
            else:
                out.append(tok)
        self.kind, self.argv = kind, out
        self.expect_exit, self.expect = expect_exit, expect


def _frac(r):
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def _triple(v):
    return ",".join(_frac(x) for x in v)


def _cycles(images):
    out, seen = [], set()
    for i in range(len(images)):
        if i in seen or images[i] == i:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = images[j]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def _relabel(rng, degree, gens):
    """Generators conjugated by a random relabelling of the points, as the
    CLI's ';'-separated cycle string and as image tuples."""
    lab = list(range(degree))
    rng.shuffle(lab)
    perms = []
    for text in gens:
        images = list(range(degree))
        for cyc in text.strip("()").split(")("):
            idx = [int(t) for t in cyc.split()]
            for a, b in zip(idx, idx[1:] + idx[:1]):
                images[lab[a]] = lab[b]
        perms.append(tuple(images))
    return "; ".join(_cycles(p) for p in perms), perms


def _closure(gens):
    """Group elements as image tuples, sorted (the library's indexing)."""
    n = len(gens[0])
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def _sum(sym, terms):
    sym.shuffle(terms)
    return "+".join(terms)


def _eval_low(base, sym):
    a, b = base.sample(_NONSQUARES, 2)
    p, q = base.randint(1, 9), base.randint(2, 9)
    form = base.randrange(4)
    if form == 0:
        return _sum(sym, [f"sqrt({a})", f"sqrt({b})"])
    if form == 1:
        return _sum(sym, [f"sqrt({a})*sqrt({b})", f"{p}/{q}"])
    if form == 2:
        return f"({_sum(sym, [str(p), f'sqrt({a})'])})/{q}"
    return f"root({-a},{base.randint(-3, 3)},0,1,0)"     # x^3 + ... - a


def _eval_mid(base, sym):
    a, b, c, d = base.sample(_NONSQUARES, 4)
    form = base.randrange(3)
    if form == 0:
        return _sum(sym, [f"sqrt({x})" for x in (a, b, c)])              # degree 8
    if form == 1:
        return _sum(sym, [f"sqrt({a}+sqrt({b}))", f"sqrt({c})"])        # degree 8
    return _sum(sym, [f"sqrt({x})" for x in (a, b, c, d)])           # degree 16


def _error(rng):
    """A domain error, its form picked by the seed; all are start-up bound."""
    a = rng.randint(1, 9)
    return rng.choice((
        (["field", "eval", "--expr", f"{a}/0"], "division-by-zero"),
        (["field", "eval", "--expr", f"sqrt(-{a})"], "out-of-range"),
        (["field", "eval", "--expr", f"{a}+*{a}"], "parse-error"),
        (["graph", "diameter", "--cos-l", f"1/{a + 1}"], "precondition"),
        (["field", "roots", "--poly=0,0"], "zero-polynomial"),
    ))


def _make(kind, base, sym):
    """The next call of `kind`: its problem drawn from `base`, its symmetric
    variant (coordinate signs and order, point labels, summand order) from
    `sym`, as in workloads.schedule."""
    g = signed_permutation(sym)
    if kind == "eval_low" or kind == "eval_mid":
        e = (_eval_low if kind == "eval_low" else _eval_mid)(base, sym)
        return Call(kind, ["field", "eval", "--expr", e], expect=e)
    if kind == "dist":
        x, y = act(g, rational_unit(base)), act(g, rational_unit(base))
        return Call(kind, ["plane", "dist", "--p", _triple(x), "--q", _triple(y)],
                    expect=abs(sum(a * b for a, b in zip(x, y))))
    if kind == "error":
        argv, code = _error(sym)
        return Call(kind, argv, expect_exit=1, expect=code)
    if kind in ("cf", "jordan", "subgroups"):
        group, _ = _relabel(sym, *_S5)
        if kind == "cf":
            # a transitive group has one orbit, so Cauchy-Frobenius gives 1
            return Call(kind, ["finite", "cf", "--group", group], expect=1)
        if kind == "jordan":
            return Call(kind, ["finite", "jordan", "--group", group], expect=group)
        return Call(kind, ["finite", "subgroups", "--group", group],
                    expect=_S5_SUBGROUPS)
    if kind == "conjgraph":
        degree = _S3[0]
        group, perms = _relabel(sym, *_S3)
        elems = _closure(perms)
        g1 = sym.randrange(1, len(elems))          # index 0 is the identity
        power, cyc = elems[g1], {elems[0]}
        while power not in cyc:
            cyc.add(power)
            power = tuple(elems[g1][power[j]] for j in range(degree))
        g3 = sym.choice([j for j, e in enumerate(elems) if e not in cyc])
        return Call(kind, ["finite", "conjgraph", "--group", group,
                           "--g1", str(g1), "--g3", str(g3)])
    if kind == "census":
        return Call(kind, ["finite", "census", "--n-max", "5"], expect=_CENSUS_5)
    if kind == "equidistant":
        c = _COS_L
        t2 = 2 * c * c - 1
        while True:
            x, y = rational_unit(base), rational_unit(base)
            s = abs(sum(a * b for a, b in zip(x, y)))
            if s != 1 and s >= t2:
                break
        x, y = act(g, x), act(g, y)
        return Call(kind, ["plane", "equidistant", "--p", _triple(x), "--q", _triple(y),
                           "--cos-l", _frac(c)], expect=(x, y, c))
    if kind == "fixed_point":
        m = conjugate(g, integer_matrix(base))
        return Call(kind, ["iso", "fixed-point", "--matrix",
                           json.dumps([[str(v) for v in row] for row in m])], expect=m)
    if kind == "path":
        c = _COS_L
        while True:
            x, y = rational_unit(base), rational_unit(base)
            if abs(sum(a * b for a, b in zip(x, y))) != 1:
                break
        x, y = act(g, x), act(g, y)
        return Call(kind, ["graph", "path", "--p", _triple(x), "--q", _triple(y),
                           "--cos-l", _frac(c)], expect=(x, y, c))
    raise ValueError(kind)


def calls(seed):
    """Endless deterministic stream of Calls for one run."""
    base, sym = random.Random("cli-base"), random.Random(f"cli-{seed}")
    yield Call("eval_deg25", ["field", "eval", "--expr", EVAL_DEG25], expect=EVAL_DEG25)
    for kind in itertools.cycle(CYCLE):
        yield _make(kind, base, sym)


def defect_calls():
    """(name, Call) for each known defect."""
    return [(name, Call(kind, argv, expect=exp))
            for name, (kind, argv, exp) in KNOWN_DEFECTS.items()]


# -- checking ---------------------------------------------------------------

def contract_error(call, returncode, stdout, stderr):
    """Why the call broke the CLI contract, or None."""
    if returncode not in EXIT_CODES:
        return f"exit code {returncode} outside {EXIT_CODES}"
    if "Traceback (most recent call last)" in stderr:
        return "traceback on stderr"
    if returncode != call.expect_exit:
        return f"exit code {returncode}, expected {call.expect_exit}"
    lines = stdout.strip().splitlines()
    try:
        obj = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if len(lines) != 1 or not isinstance(obj, dict):
        return "stdout is not one JSON object"
    return None


class Checker:
    """Exact checks of CLI answers through the library, in this process."""

    def __init__(self):
        from rotagraph import algebraic, elliptic, expr, finite, graph, isometry
        self.alg, self.ep, self.expr, self.fn, self.gr, self.im = \
            algebraic, elliptic, expr, finite, graph, isometry

    def _point(self, obj):
        return self.ep.point_from_json(obj)

    def _rat_point(self, v):
        return self.ep.make_point(*v)

    def check(self, call, out):
        """True when the parsed stdout `out` is the exact right answer."""
        alg, parse = self.alg, self.expr.parse
        kind, exp = call.kind, call.expect
        if kind == "error":
            return out.get("error") == exp
        if kind.startswith("eval"):
            return parse(out["value"]) == parse(exp)
        if kind == "dist":
            return parse(out["cos_d"]) == exp
        if kind == "cf":
            return out["orbit_count"] == exp and out["average_fixed_points"] == str(exp)
        if kind == "subgroups":
            return out["count"] == exp == len(out["subgroups"])
        if kind == "jordan":
            gens = exp.split("; ")
            n = 1 + max(int(t) for g in gens for t in g.strip("()").replace(")(", " ").split())
            grp = self.fn.PermGroup(n, [self.fn.Permutation.from_cycles(g, n) for g in gens])
            w = self.fn.Permutation.from_cycles(out["witness"], n)
            return w.fixed_count() == 0 and w in grp.elements()
        if kind == "census":
            return (all(out["assertions"].values()) and out["counts"]["unverified"] == 0
                    and out["counts"]["graphs"] == exp == len(out["graphs"]))
        if kind == "conjgraph":
            d = out["diagnostics"]
            return (d["acts_by_automorphisms"] and d["transitive"]
                    and (d["class_size"] < 2 or not d["by_rotations"]))
        if kind == "equidistant":
            x, y, c = exp
            z = self._point(out["point"])
            cos_l = self.ep.as_dist_cos(c)
            return (self.ep.dist_cos(z, self._rat_point(x)) == cos_l
                    and self.ep.dist_cos(z, self._rat_point(y)) == cos_l)
        if kind == "fixed_point":
            # the printed unit lift must equal the library's, coordinate by
            # coordinate (same minimal polynomials, so no resultants), and
            # the library's point must be fixed
            m = self.im.LinearMap(exp)
            p = self.im.fixed_point(m)
            printed = [parse(out["point"][c]) for c in "xyz"]
            return self.im.apply(m, p) == p and printed == list(p.lift)
        if kind == "path":
            x, y, c = exp
            spec = self.gr.GraphSpec(c)
            p, q = self._rat_point(x), self._rat_point(y)
            pts = [self._point(o) for o in out["path"]]
            k, _ = self.gr.graph_distance(spec, p, q)
            return (out["verified"] is True and out["length"] == k
                    and self.gr.verify_path(spec, self.gr.Path(pts), p, q, k))
        raise ValueError(kind)
