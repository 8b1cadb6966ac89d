"""Finite permutation groups and finite graphs.

Covers orbit counting (Cauchy-Frobenius), the rotary-transitivity
predicates, exhaustive subgroup scans at desk scale, the bipartite test,
the conjugation-class graph recipe for finite groups, and a census of
small graphs up to isomorphism.
"""

from fractions import Fraction
from functools import lru_cache
import itertools
import math
import re

import numpy as np

from .errors import (
    BoundExceededError,
    InternalConsistencyError,
    ParseError,
    PreconditionError,
)

# budgets past which the finite layer raises BoundExceededError
MAX_DEGREE = 256          # degree in `from_cycles`, vertex count in `from_json`
MAX_GROUP_ORDER = 40320   # 8!: elements that `PermGroup.elements` enumerates
MAX_TABLE_ORDER = 5040    # 7!: group order of a Cayley table (order**2 int16 entries)
MAX_LATTICE_ORDER = 720   # 6!: group order whose whole subgroup lattice is listed
MAX_CENSUS_VERTICES = 7   # vertex count the census runs to


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _int_lists(rows):
    """Whether `rows` is a list of integer lists (booleans and floats are not
    integers), as JSON input must be before numpy casts it."""
    return isinstance(rows, (list, tuple)) and all(
        isinstance(r, (list, tuple)) and all(map(_is_int, r)) for r in rows)


class Permutation:
    """A bijection of [0, n), stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise PreconditionError("images must be a permutation of 0..n-1")
        self.images = images

    @property
    def degree(self):
        return len(self.images)

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def from_cycles(cls, text, n):
        """Parse cycle notation like "(0 1 2)(3 4)"; "()" is the identity."""
        if n > MAX_DEGREE:
            raise BoundExceededError(f"degree {n} exceeds the bound {MAX_DEGREE}")
        text = text.strip()
        # one reading per string: a digit starts each cycle's body
        if not re.fullmatch(r"(\(\s*(\d[\d\s,]*)?\))+", text):
            raise ParseError(f"bad cycle notation: {text!r}")
        images = list(range(n))
        for cyc in re.findall(r"\(([^()]*)\)", text):
            idx = [int(t) for t in re.split(r"[\s,]+", cyc.strip()) if t]
            if any(i >= n for i in idx):
                raise ParseError("cycle index out of range")
            if len(set(idx)) != len(idx):
                raise ParseError("repeated index inside a cycle")
            for a, b in zip(idx, idx[1:] + idx[:1]):
                if images[a] != a:
                    raise ParseError("index repeated across cycles")
                images[a] = b
        return cls(images)

    def cycles(self):
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_string(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(%s)" % " ".join(map(str, c)) for c in cyc)

    def __mul__(self, other):
        """Composition: (p * q)(i) = p(q(i))."""
        if self.degree != other.degree:
            raise PreconditionError("degree mismatch")
        return Permutation(self.images[j] for j in other.images)

    def inverse(self):
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def fixed_count(self):
        return sum(1 for i, j in enumerate(self.images) if i == j)

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.cycle_string()})"


class PermGroup:
    """The closure of a list of generating permutations of [0, n)."""

    __slots__ = ("degree", "generators", "_elements")

    def __init__(self, degree, generators):
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise PreconditionError("generator degree mismatch")
        self.degree = degree
        self.generators = generators
        self._elements = None

    def elements(self):
        """Full element list, sorted by image tuple (deterministic)."""
        if self._elements is None:
            seen = {Permutation.identity(self.degree)}
            frontier = list(seen)
            while frontier:
                nxt = []
                for p in frontier:
                    for g in self.generators:
                        q = g * p
                        if q not in seen:
                            seen.add(q)
                            nxt.append(q)
                    if len(seen) > MAX_GROUP_ORDER:
                        raise BoundExceededError(
                            f"group order exceeds the bound {MAX_GROUP_ORDER}")
                frontier = nxt
            self._elements = tuple(sorted(seen))
        return self._elements

    @property
    def order(self):
        return len(self.elements())

    def orbits(self):
        return _components(self.degree, ((i, j) for g in self.generators
                                         for i, j in enumerate(g.images)))

    def is_transitive(self):
        return self.degree > 0 and len(self.orbits()) == 1

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


class FiniteGraph:
    """A finite simple graph: vertex count and unordered index pairs."""

    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        norm = set()
        for e in edges:
            i, j = e
            if i == j:
                raise PreconditionError("loops are not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise PreconditionError("edge index out of range")
            norm.add((min(i, j), max(i, j)))
        self.n = n
        self.edges = frozenset(norm)

    def to_json(self):
        return {"n": self.n, "edges": sorted(map(list, self.edges))}

    @classmethod
    def from_json(cls, obj):
        if not (isinstance(obj, dict) and _is_int(obj.get("n"))
                and obj["n"] >= 0 and _int_lists(obj.get("edges"))):
            raise PreconditionError(
                'a graph is {"n": count, "edges": [[i, j], ...]} with integers')
        if obj["n"] > MAX_DEGREE:
            raise BoundExceededError(
                f"vertex count {obj['n']} exceeds the bound {MAX_DEGREE}")
        return cls(obj["n"], [tuple(e) for e in obj["edges"]])

    def __eq__(self, other):
        return (isinstance(other, FiniteGraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"FiniteGraph(n={self.n}, edges={sorted(self.edges)})"


class FiniteGroup:
    """A finite group as a multiplication table, a numpy array over
    indices 0..n-1.

    Tables passed in are validated exhaustively (rows and columns are
    permutations, identity, inverses, associativity); groups built from
    permutation generators are Latin squares by construction, inherit
    associativity from composition and skip those checks.
    """

    __slots__ = ("table", "identity", "names", "_inv")

    _TABLE_BOUND = 128  # cubic associativity check above this is too slow

    def __init__(self, table, names=None, _trusted=False):
        if not isinstance(table, np.ndarray) and not _int_lists(table):
            raise PreconditionError("table entries must be integers")
        n = len(table)
        if any(len(row) != n for row in table):
            raise PreconditionError("multiplication table must be square")
        table = np.asarray(table).reshape(n, n)   # object dtype past int64
        if not _trusted:   # a _cayley_table is a Latin square by construction
            rng = np.arange(n)
            if (np.sort(table, axis=1) != rng).any():
                raise PreconditionError("a table row is not a permutation")
            if (np.sort(table, axis=0) != rng[:, None]).any():
                raise PreconditionError("a table column is not a permutation")
        ident, inv = _identity_and_inverses(table)
        if ident is None:
            raise PreconditionError("table has no identity element")
        if not _trusted:
            if n > self._TABLE_BOUND:
                raise BoundExceededError(
                    "table too large for exhaustive associativity validation")
            if not np.array_equal(table[table, :], table[:, table]):
                raise PreconditionError("table is not associative")
        self.table = table
        self.identity = ident
        self.names = tuple(names) if names else tuple(map(str, range(n)))
        self._inv = inv

    @classmethod
    def from_permutations(cls, generators):
        grp = PermGroup(generators[0].degree if generators else 1,
                        generators)
        elems = grp.elements()
        table = _cayley_table(elems)
        return cls(table, [p.cycle_string() for p in elems], _trusted=True)

    @property
    def order(self):
        return len(self.table)

    def mul(self, i, j):
        return int(self.table[i, j])

    def inv(self, i):
        return int(self._inv[i])

    def conj(self, i, g):
        """g * i * g^-1."""
        return self.mul(self.mul(g, i), self.inv(g))

    def conjugacy_class(self, i):
        return tuple(np.unique(self.table[self.table[:, i], self._inv]).tolist())

    def cyclic_subgroup(self, i):
        everything = np.ones(self.order, dtype=bool)
        return tuple(_closure(self.table, self.identity, [i], everything).tolist())


def _cayley_table(elems):
    """t[a, b] = index of elems[a] * elems[b], for a group's elements sorted
    by image tuple.  Rows compose, t[g * x] = t[g][t[x]], so only the first
    row not yet known is binary-searched (products among the image rows
    read as big-endian bytes, which sort as the tuples do); it joins the
    generators, and every row they reach from known rows follows."""
    n = len(elems)
    if n > MAX_TABLE_ORDER:
        raise BoundExceededError(
            f"group order {n} exceeds the table bound {MAX_TABLE_ORDER}")
    # () of degree 0 reads as the identity of degree 1: no row is empty
    images = np.array([p.images or (0,) for p in elems], dtype=">u4")
    row = np.dtype((np.void, images.strides[0]))
    keys = images.view(row).ravel()
    table = np.empty((n, n), dtype=np.int16)
    known = np.zeros(n, dtype=bool)
    gens = []
    while not known.all():
        a = int(np.argmin(known))
        table[a] = np.searchsorted(keys, images[a][images].view(row).ravel())
        gens.append(a)
        known[a] = True
        frontier = np.flatnonzero(known)
        while len(frontier):
            old = known.copy()
            for g in gens:
                ys = table[g, frontier]
                new = ~known[ys]
                table[ys[new]] = table[g][table[frontier[new]]]
                known[ys] = True
            frontier = np.flatnonzero(known & ~old)
    return table


def _identity_and_inverses(t):
    """The first two-sided identity of a Latin-square table and the inverse
    of each element, or (None, None)."""
    rng = np.arange(len(t))
    found = np.flatnonzero((t == rng).all(axis=1) & (t == rng[:, None]).all(axis=0))
    if not len(found):
        return None, None
    return int(found[0]), np.nonzero(t == found[0])[1]


# -- constructors -------------------------------------------------------------

def symmetric_group(n):
    if n <= 1:
        return PermGroup(max(n, 1), [Permutation.identity(max(n, 1))])
    gens = [Permutation([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(Permutation(list(range(1, n)) + [0]))
    return PermGroup(n, gens)


def cyclic_group(n):
    return PermGroup(n, [Permutation(list(range(1, n)) + [0])])


def dihedral_group(n):
    """Dihedral group of order 2n, acting on the n-gon's vertices."""
    rot = Permutation(list(range(1, n)) + [0])
    ref = Permutation([(n - i) % n for i in range(n)])
    return PermGroup(n, [rot, ref])


def quaternion_group():
    """Q8 as a multiplication table; element order 1,-1,i,-i,j,-j,k,-k.
    It is the Cayley table of the left multiplications by i and j, which
    send the elements, in that order, to i,-i,-1,1,k,-k,-j,j and to
    j,-j,-k,k,-1,1,i,-i."""
    i = Permutation([2, 3, 1, 0, 6, 7, 5, 4])
    j = Permutation([4, 5, 7, 6, 1, 0, 2, 3])
    table = FiniteGroup.from_permutations([i, j]).table
    return FiniteGroup(table, ("1", "-1", "i", "-i", "j", "-j", "k", "-k"))


# -- orbit counting -----------------------------------------------------------

def orbit_count(g):
    return len(g.orbits())


def cauchy_frobenius(g):
    """Average fixed-point count over the group, as an exact rational."""
    elems = g.elements()
    total = sum(p.fixed_count() for p in elems)
    return Fraction(total, len(elems))


def is_rotarily_transitive_action(g):
    """Transitive, and every element has at least one fixed point."""
    if not g.is_transitive():
        return False
    return all(p.fixed_count() >= 1 for p in g.elements())


def jordan_witness(g):
    """A fixed-point-free element of a transitive group of degree >= 2.
    Its existence is Jordan's theorem; the scan is exhaustive, so failure
    would be a counterexample and raises."""
    if not g.is_transitive() or g.degree < 2:
        raise PreconditionError("needs a transitive group of degree >= 2")
    for p in g.elements():
        if p.fixed_count() == 0:
            return p
    raise InternalConsistencyError(
        "transitive group of degree >= 2 with no derangement")


# -- subgroup enumeration -----------------------------------------------------

def _closure(table, ident, gens, allowed):
    """Sorted element indices of the subgroup generated by `gens`: a
    breadth-first search from the identity, multiplying by the generators.
    None as soon as the search reaches an element outside `allowed`."""
    seen = np.zeros(len(table), dtype=bool)
    seen[ident] = True
    frontier = np.array([ident])
    while len(frontier):
        reached = np.zeros_like(seen)
        reached[table[frontier[:, None], gens]] = True
        frontier = np.flatnonzero(reached & ~seen)
        if not allowed[frontier].all():
            return None
        seen[frontier] = True
    return np.flatnonzero(seen)


def _conjugate_orbit(table, inv, sub):
    """All conjugates of the subgroup (element array) at once: rows of the
    result are the distinct conjugate element sets, paired with one
    conjugating element index each."""
    left = table[:, sub]                       # [g, t] = g * s_t
    conj = table[left, inv[:, None]]           # [g, t] = g * s_t * g^-1
    conj = np.sort(conj, axis=1)
    uniq, first = np.unique(conj, axis=0, return_index=True)
    return uniq, first


def _subgroups_inside(table, allowed):
    """Every subgroup whose elements all lie in `allowed`, a boolean mask
    over the table's elements that is closed under conjugation, as a dict
    from element index set to generator indices.

    Bottom-up closure up to conjugacy: one representative per conjugacy
    class of subgroups is extended by single elements (the smallest index
    of each coset outside it, if allowed, as the extension holds the whole
    coset); each new class is then expanded to its full conjugate orbit,
    which stays inside the mask.
    """
    ident, inv = _identity_and_inverses(table)
    subs = {frozenset([ident]): []}   # element index set -> generator indices
    queue = [(np.array([ident], dtype=np.int32), [])]
    while queue:
        hidx, gens = queue.pop()
        # one candidate per right coset H*g other than H: its smallest element
        coset_min = np.unique(np.delete(table[hidx, :].min(axis=0), hidx))
        for cand in coset_min[allowed[coset_min]].tolist():
            ngens = gens + [cand]
            new = _closure(table, ident, ngens, allowed)
            if new is None:
                continue
            key = frozenset(new.tolist())
            if key in subs:
                continue
            orbit, reps = _conjugate_orbit(table, inv, new)
            for row, by in zip(orbit, reps):
                rkey = frozenset(row.tolist())
                if rkey not in subs:
                    subs[rkey] = [table[table[by][x]][inv[by]] for x in ngens]
            queue.append((new, ngens))
    return subs


def all_subgroups(g):
    """Every subgroup of g, as generator-listed PermGroups.

    Deduplication is by element set; output sorted by (order, elements).
    """
    elems = g.elements()
    n = len(elems)
    if n > MAX_LATTICE_ORDER:
        raise BoundExceededError(
            f"group order {n} exceeds the lattice bound {MAX_LATTICE_ORDER}")
    table = _cayley_table(elems)
    subs = _subgroups_inside(table, np.ones(n, dtype=bool))
    out = []
    for hset, gens in sorted(subs.items(),
                             key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        gen_perms = [elems[i] for i in sorted(gens)] \
            or [Permutation.identity(g.degree)]
        sub = PermGroup(g.degree, gen_perms)
        sub._elements = tuple(sorted(elems[i] for i in hset))
        out.append(sub)
    return out


# -- finite graphs ------------------------------------------------------------

@lru_cache(maxsize=8)
def _relabelings(n):
    """All n! relabelings of [0, n) in lexicographic order, and where each
    one sends each edge position of `_edge_positions(n)`."""
    perms = np.array(list(itertools.permutations(range(n)))).reshape(-1, n)
    i, j = np.array(_edge_positions(n), dtype=np.intp).reshape(-1, 2).T
    slot = np.zeros((n, n), dtype=np.intp)
    slot[i, j] = slot[j, i] = np.arange(len(i))
    moves = slot[perms[:, i], perms[:, j]]
    perms.flags.writeable = moves.flags.writeable = False   # cached, shared
    return perms, moves


def graph_automorphisms(fg):
    """The full automorphism group, by brute force over all relabelings."""
    if math.factorial(fg.n) > MAX_GROUP_ORDER:
        raise BoundExceededError("automorphism brute force is limited to n <= 8")
    if fg.n == 0:
        raise PreconditionError("empty vertex set")
    perms, moves = _relabelings(fg.n)
    mask = np.array([e in fg.edges for e in _edge_positions(fg.n)], dtype=bool)
    keep = (mask[moves] == mask).all(axis=1)   # edges onto edges
    autos = [Permutation(p) for p in perms[keep].tolist()]
    grp = PermGroup(fg.n, autos)
    grp._elements = tuple(autos)
    return grp


def is_rotarily_transitive_graph(fg):
    """Whether some subgroup of Aut(fg) acts transitively with every element
    fixing a vertex (see `_has_rotary_subgroup`)."""
    return _has_rotary_subgroup(graph_automorphisms(fg))


def _has_rotary_subgroup(g):
    """Whether some subgroup of g acts transitively with every element
    fixing a point.  Honest check, with no appeal to the theorem that
    forces the answer: such a subgroup lies inside the set F of elements
    with a fixed point, which is closed under conjugation, so the search
    visits every subgroup inside F and tests each for a transitive orbit of
    point 0.  An intransitive g fails immediately (no subgroup can be
    transitive)."""
    if not g.is_transitive():
        return False
    elems = g.elements()
    images = np.array([p.images for p in elems])
    fixing = (images == np.arange(g.degree)).any(axis=1)
    subs = _subgroups_inside(_cayley_table(elems), fixing)
    return any(len(set(images[list(h), 0].tolist())) == g.degree for h in subs)


def is_bipartite(fg):
    """A 2-coloring with no monochromatic edge, or None."""
    color = [None] * fg.n
    adj = [[] for _ in range(fg.n)]
    for i, j in fg.edges:
        adj[i].append(j)
        adj[j].append(i)
    for start in range(fg.n):
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if color[w] is None:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    return color


# -- conjugation-class graphs -------------------------------------------------

def conjugation_graph(grp, g1, g3):
    """Graph on the conjugacy class of g1 with edges {g h g^-1, g h' g^-1}
    for h = g1, h' = g3 g1 g3^-1, plus the conjugation action and a
    diagnostics report.

    Preconditions: g1 is not the identity, and g3 lies outside the cyclic
    subgroup generated by g1.
    """
    if g1 == grp.identity:
        raise PreconditionError("g1 must not be the identity")
    if g3 in grp.cyclic_subgroup(g1):
        raise PreconditionError("g3 must lie outside the subgroup generated by g1")
    t, cls = grp.table, np.array(grp.conjugacy_class(g1))
    # acts[g, j]: the position in cls of g * cls[j] * g^-1
    acts = np.searchsorted(cls, t[t[:, cls], grp._inv[:, None]])
    edge = acts[:, np.searchsorted(cls, [g1, grp.conj(g1, g3)])]
    fg = FiniteGraph(len(cls), [(a, b) for a, b in edge.tolist() if a != b])
    perms = sorted(set(map(Permutation, acts.tolist())))
    action = PermGroup(len(cls), perms)
    action._elements = tuple(perms)

    is_aut = all(
        all((min(p.images[i], p.images[j]), max(p.images[i], p.images[j]))
            in fg.edges for i, j in fg.edges)
        for p in perms)
    fpf = [p for p in perms if p.fixed_count() == 0]
    diagnostics = {
        "class_size": len(cls),
        "class_names": [grp.names[c] for c in cls],
        "acts_by_automorphisms": is_aut,
        "transitive": action.is_transitive(),
        "by_rotations": not fpf,
        "fixed_point_free": [p.cycle_string() for p in fpf],
    }
    return fg, action, diagnostics


# -- census -------------------------------------------------------------------

def _edge_positions(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@lru_cache(maxsize=None)
def _iso_class_reps(n):
    """One labeled representative bitmask per isomorphism class of graphs
    on n vertices: the minimum edge-bitmask over all relabelings.  Masks are
    swept in ascending order, so the first one not yet seen is the minimum
    of its orbit, and its whole orbit is marked seen."""
    _, moves = _relabelings(n)   # n! x m
    m = moves.shape[1]
    weights = np.int64(1) << np.arange(m, dtype=np.int64)
    seen = np.zeros(1 << m, dtype=bool)
    reps = []
    for mask in range(1 << m):
        if not seen[mask]:
            reps.append(mask)
            bits = (mask >> np.arange(m)) & 1
            seen[bits[moves] @ weights] = True
    return tuple(reps)


def _mask_to_graph(n, mask):
    pos = _edge_positions(n)
    return FiniteGraph(n, [pos[k] for k in range(len(pos)) if (mask >> k) & 1])


def census(n_max):
    """Exhaustive report over all graphs on up to n_max vertices (one per
    isomorphism class): transitivity, rotary transitivity (honest subgroup
    scan, once per automorphism group: a graph and its complement share
    one), bipartiteness, and Cauchy-Frobenius integrality of every
    automorphism group encountered.  Every verdict is certified, so the
    `unverified` fields read 0 and false."""
    if n_max > MAX_CENSUS_VERTICES:
        raise BoundExceededError(f"census bound is {MAX_CENSUS_VERTICES}")
    graphs = []
    counts = {"graphs": 0, "transitive": 0, "rotarily_transitive": 0,
              "unverified": 0}
    a_ok = b_ok = c_ok = True
    rotary = {}   # automorphism group elements -> rotary verdict
    for n in range(1, n_max + 1):
        for mask in _iso_class_reps(n):
            fg = _mask_to_graph(n, mask)
            aut = graph_automorphisms(fg)
            transitive = aut.is_transitive()
            cf = cauchy_frobenius(aut)
            cf_integral = (cf.denominator == 1 and cf == orbit_count(aut))
            c_ok = c_ok and cf_integral
            if aut.elements() not in rotary:
                rotary[aut.elements()] = _has_rotary_subgroup(aut)
            rot = rotary[aut.elements()]
            if rot != (n == 1):
                a_ok = False
            coloring = is_bipartite(fg)
            if (coloring is not None and transitive and n >= 2
                    and len(_components(n, fg.edges)) == 1 and rot):
                b_ok = False
            counts["graphs"] += 1
            counts["transitive"] += int(transitive)
            counts["rotarily_transitive"] += int(rot)
            graphs.append({
                "n": n,
                "edges": sorted(map(list, fg.edges)),
                "aut_order": aut.order,
                "transitive": transitive,
                "rotarily_transitive": rot,
                "unverified": False,
                "bipartite": coloring is not None,
                "cf_integral": cf_integral,
            })
    return {
        "n_max": n_max,
        "counts": counts,
        "assertions": {
            "no_multi_vertex_rotarily_transitive": a_ok,
            "bipartite_transitive_not_rotary": b_ok,
            "cauchy_frobenius_integral": c_ok,
        },
        "graphs": graphs,
    }


def _components(n, pairs):
    """The classes of 0..n-1 under the equivalence the pairs generate, each
    ascending, sorted by least element (union-find)."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())
