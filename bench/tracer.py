"""In-memory span tracer for the benchmark's traced runs.

``install()`` wraps the public functions of each layer module of rotagraph,
as their callers see them: the module attribute itself and every name that
another rotagraph module rebound with ``from .x import f``.  It also wraps
``AlgReal.refine``, the ``ProjPoint.lift`` property and ``mpmath.pslq``.
Each call records a span (name, parent, start, end) in flat arrays; nothing
is written until ``dump()``.  A span's self time is its duration minus the
durations of its direct children.

The program itself is not modified: wrapping happens in the benchmark's
process after import.
"""

import time
from array import array

import numpy as np

LAYERS = ("polys", "algebraic", "expr", "elliptic", "isometry", "graph", "finite")

# Candidate polynomials whose degree is tracked (root selection input).
_CANDIDATES = ("polys.cand_sum", "polys.cand_prod", "polys.cand_sqrt")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.observed = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def observe_max(self, key, value):
        self.observed[key] = max(self.observed.get(key, 0), value)

    def observe_sum(self, key, value):
        self.observed[key] = self.observed.get(key, 0) + value

    def wrap(self, name, fn, observe=None):
        nid = self._id(name)
        clock = time.perf_counter_ns
        names, parents, starts, ends, stack = \
            self.name, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0)
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def run_span(self, name, fn, *args):
        """Call fn(*args) under a top-level span (one per operation)."""
        return self.wrap(name, fn)(*args)

    def aggregate(self):
        """{span name: (calls, self seconds)}."""
        n = len(self.start)
        if not n:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        self_s = np.bincount(name, weights=dur - child,
                             minlength=len(self.names)) / 1e9
        calls = np.bincount(name, minlength=len(self.names))
        return {nm: (int(calls[i]), float(self_s[i]))
                for i, nm in enumerate(self.names)}

    def dump(self, path):
        """Write the raw spans (name table plus flat arrays)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64))


def _public_functions(mod):
    """Module-level public callables defined in `mod` (lru_cache wrappers
    included), by name."""
    out = {}
    for attr, value in vars(mod).items():
        if attr.startswith("_") or not callable(value) or isinstance(value, type):
            continue
        if getattr(value, "__module__", None) == mod.__name__:
            out[attr] = value
    return out


def install(tracer):
    """Wrap every layer's public functions; return the rotagraph modules."""
    import mpmath

    import rotagraph
    from rotagraph import (algebraic, cli, elliptic, expr, finite, graph,
                           isometry, polys)
    modules = {"polys": polys, "algebraic": algebraic, "expr": expr,
               "elliptic": elliptic, "isometry": isometry, "graph": graph,
               "finite": finite}

    replaced = {}   # id(original) -> wrapper
    for layer, mod in modules.items():
        for attr, fn in _public_functions(mod).items():
            name = f"{layer}.{attr}"
            observe = None
            if name in _CANDIDATES:
                def observe(out):
                    tracer.observe_max("polys.cand_degree_max", len(out) - 1)
            elif name == "finite.all_subgroups":
                def observe(out):
                    tracer.observe_sum("finite.all_subgroups.found", len(out))
            replaced[id(fn)] = tracer.wrap(name, fn, observe)

    # rebind in the defining module and wherever it was imported by name
    for mod in [rotagraph, cli, *modules.values()]:
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced and not attr.startswith("__"):
                setattr(mod, attr, replaced[id(value)])

    algebraic.AlgReal.refine = tracer.wrap("algebraic.refine",
                                           algebraic.AlgReal.refine)
    lift = elliptic.ProjPoint.lift
    elliptic.ProjPoint.lift = property(tracer.wrap("elliptic.lift", lift.fget))
    mpmath.pslq = tracer.wrap("algebraic.pslq", mpmath.pslq)
    return modules


def polys_cache_info():
    """Hits, misses and entries summed over the lru caches of `polys`."""
    from rotagraph import polys
    hits = misses = entries = 0
    for value in vars(polys).values():
        # a traced function wraps the lru_cache wrapper
        info = getattr(value, "cache_info", None) or \
            getattr(getattr(value, "__wrapped__", None), "cache_info", None)
        if info is not None:
            ci = info()
            hits += ci.hits
            misses += ci.misses
            entries += ci.currsize
    return {"hits": hits, "misses": misses, "entries": entries}



_ARITH = ("add", "sub", "mul", "div", "sqrt_nonneg")


def merge(into, spans):
    """Add span aggregates (calls, self seconds) into `into`."""
    for name, (calls, self_s) in spans.items():
        c, s = into.get(name, (0, 0.0))
        into[name] = (c + calls, s + self_s)
    return into


def layer_metrics(names, spans, observed, cache):
    """The per-layer metrics among `names` that spans, observations and
    cache counters define; other names are left to the caller.

    ``<layer>.self_s`` sums the self time of every span of the layer;
    ``<layer>.<fn>.calls`` and ``.self_s`` read one span name, where
    ``algebraic.arith`` stands for add, sub, mul, div and sqrt_nonneg."""
    lookups = cache["hits"] + cache["misses"]
    fixed = {
        "polys.cand_degree_max": observed.get("polys.cand_degree_max", 0),
        "finite.all_subgroups.found": observed.get("finite.all_subgroups.found", 0),
        "polys.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "polys.cache_lookups": lookups,
        "polys.cache_entries": cache["entries"],
    }
    out = {}
    for name in names:
        parts = name.split(".")
        if name in fixed:
            out[name] = fixed[name]
        elif len(parts) == 2 and parts[0] in LAYERS and parts[1] == "self_s":
            out[name] = sum(s for k, (_, s) in spans.items()
                            if k.startswith(parts[0] + "."))
        elif len(parts) == 3 and parts[0] in LAYERS and parts[2] in ("calls", "self_s"):
            fns = _ARITH if name.startswith("algebraic.arith.") else (parts[1],)
            i = 0 if parts[2] == "calls" else 1
            out[name] = sum(spans.get(f"{parts[0]}.{f}", (0, 0.0))[i] for f in fns)
    return out
