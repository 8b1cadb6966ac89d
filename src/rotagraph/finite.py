"""Finite permutation groups and finite graphs.

Covers orbit counting (Cauchy-Frobenius), the rotary-transitivity
predicates, exhaustive subgroup scans at desk scale, the bipartite test,
the conjugation-class graph recipe for finite groups, and a census of
small graphs up to isomorphism.

Plain Python throughout: a Cayley table is a list of rows of array('h'),
two bytes an entry, and the searches walk cosets, conjugates and orbits
element by element.
"""

from array import array
import math
from operator import eq, itemgetter
import re
import struct

from .errors import (
    BoundExceededError,
    InternalConsistencyError,
    OutOfRangeError,
    ParseError,
    PreconditionError,
    brief,
    extra_keys,
)

# budgets past which the finite layer raises BoundExceededError
MAX_DEGREE = 256          # degree in `from_cycles`, vertex count in `from_json`
MAX_GROUP_ORDER = 40320   # 8!: elements that `PermGroup.elements` enumerates
MAX_TABLE_ORDER = 5040    # 7!: group order of a Cayley table (order**2 2-byte entries)
MAX_LATTICE_ORDER = 720   # 6!: group order whose whole subgroup lattice is listed
MAX_CENSUS_VERTICES = 7   # vertex count the census runs to


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _int_lists(rows):
    """Whether `rows` is a list of integer lists (booleans and floats are not
    integers), as JSON input must be."""
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
        if n < 0:
            raise OutOfRangeError(f"degree {brief(n)} is negative")
        if n > MAX_DEGREE:
            raise BoundExceededError(f"degree {brief(n)} exceeds the bound {MAX_DEGREE}")
        text = text.strip()
        # one reading per string: a digit starts each cycle's body, and a
        # digit is ASCII 0-9
        if not re.fullmatch(r"(\(\s*([0-9][0-9\s,]*)?\))+", text):
            raise ParseError(f"bad cycle notation: {brief(text)}")
        images, seen = list(range(n)), set()
        for cyc in re.findall(r"\(([^()]*)\)", text):
            idx = [int(t) for t in re.split(r"[\s,]+", cyc.strip()) if t]
            if any(i >= n for i in idx):
                raise ParseError("cycle index out of range")
            if len(set(idx)) != len(idx):
                raise ParseError("repeated index inside a cycle")
            # a fixed point named by (i) counts as seen too
            if not seen.isdisjoint(idx):
                raise ParseError("index repeated across cycles")
            seen.update(idx)
            for a, b in zip(idx, idx[1:] + idx[:1]):
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

    __slots__ = ("degree", "generators", "_elements", "_orbits")

    def __init__(self, degree, generators):
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise PreconditionError("generator degree mismatch")
        self.degree = degree
        self.generators = generators
        self._elements = None
        self._orbits = None

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
        """The orbits on [0, n), each ascending, sorted by least point;
        computed once, as the transitivity test, the orbit count and the
        census read them in turn."""
        if self._orbits is None:
            self._orbits = tuple(map(tuple, _components(
                self.degree, ((i, j) for g in self.generators
                              for i, j in enumerate(g.images)))))
        return self._orbits

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
                and obj["n"] >= 0 and _int_lists(obj.get("edges"))
                and all(len(e) == 2 for e in obj["edges"])):
            raise PreconditionError(
                'a graph is {"n": count, "edges": [[i, j], ...]} with integers')
        if extra := extra_keys(obj, {"n", "edges"}):
            raise PreconditionError(f"a graph has keys n and edges only, not {extra}")
        if obj["n"] > MAX_DEGREE:
            raise BoundExceededError(
                f"vertex count {brief(obj['n'])} exceeds the bound {MAX_DEGREE}")
        return cls(obj["n"], [tuple(e) for e in obj["edges"]])

    def __eq__(self, other):
        return (isinstance(other, FiniteGraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"FiniteGraph(n={self.n}, edges={sorted(self.edges)})"


class FiniteGroup:
    """A finite group as a multiplication table over indices 0..n-1, a list
    of rows of array('h').

    Tables passed in are validated exhaustively (rows and columns are
    permutations, identity, associativity); groups built from
    permutation generators are Latin squares by construction, inherit
    associativity from composition and skip those checks.
    """

    __slots__ = ("table", "identity", "names", "_inv")

    _TABLE_BOUND = 128  # cubic associativity check above this is too slow

    def __init__(self, table, names=None, _trusted=False):
        if not _trusted and not _int_lists(table):
            raise PreconditionError("table entries must be integers")
        n = len(table)
        if any(len(row) != n for row in table):
            raise PreconditionError("multiplication table must be square")
        if not _trusted:   # a _cayley_table is a Latin square by construction
            rng = list(range(n))
            if any(sorted(row) != rng for row in table):
                raise PreconditionError("a table row is not a permutation")
            if any(sorted(col) != rng for col in zip(*table)):
                raise PreconditionError("a table column is not a permutation")
        ident = _identity(table)
        if ident is None:
            raise PreconditionError("table has no identity element")
        if not _trusted:
            if n > self._TABLE_BOUND:
                raise BoundExceededError(
                    "table too large for exhaustive associativity validation")
            if not _associative(table):
                raise PreconditionError("table is not associative")
            table = [array("h", row) for row in table]
        self.table = table
        self.identity = ident
        self.names = tuple(names) if names else tuple(map(str, range(n)))
        self._inv = _inverses(table, ident)

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
        return self.table[i][j]

    def inv(self, i):
        return self._inv[i]

    def conj(self, i, g):
        """g * i * g^-1."""
        return self.mul(self.mul(g, i), self.inv(g))

    def conjugacy_class(self, i):
        t, inv = self.table, self._inv
        return tuple(sorted({t[t[g][i]][inv[g]] for g in range(self.order)}))

    def cyclic_subgroup(self, i):
        everything = bytearray([1]) * self.order
        return tuple(sorted(_closure(self.table, [self.identity], [i], everything)))


def _getter(idx):
    """Gather the entries at positions `idx` of a row, as a tuple (a bare
    itemgetter of one position returns the entry itself)."""
    get = itemgetter(*idx)
    return get if len(idx) > 1 else lambda row: (get(row),)


def _cayley_table(elems):
    """t[a][b] = index of elems[a] * elems[b], for a group's elements sorted
    by image tuple, as rows of array('h'), two bytes an entry.  Rows
    compose, t[x * g][y] = t[x][t[g][y]], so only the first row not yet
    known is computed from the permutations; it joins the generators, and
    every row that a generator on the right reaches from a known row is one
    gather of that row."""
    n = len(elems)
    if n > MAX_TABLE_ORDER:
        raise BoundExceededError(
            f"group order {n} exceeds the table bound {MAX_TABLE_ORDER}")
    index = {p.images: i for i, p in enumerate(elems)}
    pack = struct.Struct(f"{n}h").pack
    table = [None] * n
    gens = []   # (index, gather by its row)
    for a in range(n):
        if table[a] is not None:
            continue
        pa = elems[a].images
        row = [index[tuple(map(pa.__getitem__, q.images))] for q in elems]
        table[a] = array("h", row)
        gens.append((a, _getter(row)))
        # the known rows times the new generator, then everything new
        # times every generator
        frontier = [x for x in range(n) if table[x] is not None]
        step = gens[-1:]
        while frontier:
            new = []
            for x in frontier:
                tx = table[x]
                for g, gather in step:
                    xg = tx[g]
                    if table[xg] is None:
                        table[xg] = array("h", pack(*gather(tx)))
                        new.append(xg)
            frontier, step = new, gens
    return table


def _identity(t):
    """The first two-sided identity of a Latin-square table, or None."""
    n = len(t)
    for e, row in enumerate(t):
        if all(map(eq, row, range(n))) and all(t[j][e] == j for j in range(n)):
            return e
    return None


def _inverses(t, e):
    """The inverse of each element of an associative table with identity e:
    the powers i, i^2, ..., i^k = e of an element not yet reached give the
    inverses of all of them, i^m and i^(k-m) being inverse."""
    inv = [None] * len(t)
    inv[e] = e
    for i in range(len(t)):
        if inv[i] is None:
            powers = [i]
            while powers[-1] != e:
                powers.append(t[powers[-1]][i])
            body = powers[:-1]
            for a, b in zip(body, reversed(body)):
                inv[a] = b
    return inv


def _associative(t):
    """(x a) y = x (a y) for all x, a, y: row x·a of the table against row x
    gathered by row a."""
    rows = [tuple(r) for r in t]
    for a, row_a in enumerate(rows):
        gather = _getter(row_a)
        if any(rows[row_x[a]] != gather(row_x) for row_x in rows):
            return False
    return True


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
    return FiniteGroup([row.tolist() for row in table],
                       ("1", "-1", "i", "-i", "j", "-j", "k", "-k"))


# -- orbit counting -----------------------------------------------------------

def orbit_count(g):
    return len(g.orbits())


def cauchy_frobenius(g):
    """Average fixed-point count over the group, as an exact rational."""
    from fractions import Fraction   # the only rational in finite: cf calls alone load it
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

def _closure(table, sub, gens, allowed):
    """The element set of the subgroup generated by `gens`, given the
    element list of a subgroup `sub` that generators among `gens` generate.
    Dimino's method: the group is a union of left cosets x*sub, and a coset
    joins whenever a generator times a coset representative lands outside
    the union.  None as soon as a coset holds an element outside
    `allowed`."""
    inside = set(sub)
    coset = _getter(sub)
    reps = [sub[0]]
    for r in reps:
        for s in gens:
            x = table[s][r]
            if x not in inside:
                new = coset(table[x])
                if not all(map(allowed.__getitem__, new)):
                    return None
                inside.update(new)
                reps.append(x)
    return inside


def _coset_minima(table, sub):
    """The least element of each right coset sub*g other than sub itself,
    ascending, and for each element the least of its coset: the first
    element not yet marked starts a coset, and the whole coset is marked."""
    least = [None] * len(table)
    for h in sub:
        least[h] = -1
    rows = [table[h] for h in sub]
    out = []
    for g, m in enumerate(least):
        if m is None:
            out.append(g)
            for row in rows:
                least[row[g]] = g
    return out, least


def _conjugates(table, inv, sub, gens):
    """Each distinct conjugate g*K*g^-1 of the subgroup K (element list
    `sub`, generated by `gens`) as an element set, with the least g that
    gives it.  The g giving one conjugate form a left coset g*N of the
    normaliser N, so g ascending, each g not yet marked is the least of its
    coset, and the coset is marked."""
    n = len(table)
    inside = bytearray(n)
    for k in sub:
        inside[k] = 1
    norm = range(n)
    for s in gens:
        norm = [g for g in norm if inside[table[table[g][s]][inv[g]]]]
    marked = bytearray(n)
    out = []
    g = 0
    while g >= 0:
        row, gi = table[g], inv[g]
        for x in norm:
            marked[row[x]] = 1
        out.append((frozenset(table[row[k]][gi] for k in sub), g))
        g = marked.find(0, g)
    return out


def _subgroups_inside(table, allowed):
    """Every subgroup whose elements all lie in `allowed`, a mask over the
    table's elements (a bytearray or a list of booleans) that is closed
    under conjugation, as a dict from element index set to generator
    indices.

    Bottom-up closure up to conjugacy: one representative per conjugacy
    class of subgroups is extended by single elements (the smallest index
    of each coset outside it, if allowed, as the extension holds the whole
    coset); each new class is then expanded to its full conjugate orbit,
    which stays inside the mask, each conjugate generated by the
    extension's generators conjugated by the least element that gives it.
    """
    ident = _identity(table)
    inv = _inverses(table, ident)
    subs = {frozenset([ident]): []}   # element index set -> generator indices
    queue = [([ident], [])]
    while queue:
        hidx, gens = queue.pop()
        minima, least = _coset_minima(table, hidx)
        done = set()
        for cand in minima:
            if not allowed[cand] or cand in done:
                continue
            # <H, y> = <H, cand> for every y in a double coset H c H, c a
            # power of cand that generates <cand>
            powers = [cand]
            while powers[-1] != ident:
                powers.append(table[powers[-1]][cand])
            for j, c in enumerate(powers[:-1], 1):
                if math.gcd(j, len(powers)) == 1:
                    row = table[c]
                    done.update(least[row[h]] for h in hidx)
            ngens = gens + [cand]
            new = _closure(table, hidx, ngens, allowed)
            if new is None or frozenset(new) in subs:
                continue
            new = list(new)
            for key, by in _conjugates(table, inv, new, ngens):
                if key not in subs:
                    subs[key] = [table[table[by][x]][inv[by]] for x in ngens]
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
    subs = _subgroups_inside(table, bytearray([1]) * n)
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

def graph_automorphisms(fg):
    """The full automorphism group: a backtracking search that sends the
    vertices 0, 1, ... in turn to unused vertices of the same degree, tried
    in ascending order, keeping adjacency to the vertices already sent, so
    the automorphisms come out in lexicographic order."""
    n = fg.n
    if math.factorial(n) > MAX_GROUP_ORDER:
        raise BoundExceededError("automorphism brute force is limited to n <= 8")
    if n == 0:
        raise PreconditionError("empty vertex set")
    nbrs = [0] * n   # neighbour bitmasks
    for i, j in fg.edges:
        nbrs[i] |= 1 << j
        nbrs[j] |= 1 << i
    deg = [b.bit_count() for b in nbrs]
    images = [0] * n
    autos = []

    def extend(i, used):
        if i == n:
            autos.append(Permutation(images))
            return
        # where the neighbours of i among 0..i-1 went
        want = 0
        for j in range(i):
            if nbrs[i] >> j & 1:
                want |= 1 << images[j]
        for v in range(n):
            if not used >> v & 1 and deg[v] == deg[i] and nbrs[v] & used == want:
                images[i] = v
                extend(i + 1, used | 1 << v)

    extend(0, 0)
    grp = PermGroup(n, autos)
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
    fixing = [p.fixed_count() > 0 for p in elems]
    subs = _subgroups_inside(_cayley_table(elems), fixing)
    return any(len({elems[h].images[0] for h in hset}) == g.degree
               for hset in subs)


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
    t, inv, cls = grp.table, grp._inv, grp.conjugacy_class(g1)
    pos = {c: k for k, c in enumerate(cls)}
    # acts[g][j]: the position in cls of g * cls[j] * g^-1
    acts = [[pos[t[t[g][c]][inv[g]]] for c in cls] for g in range(grp.order)]
    a, b = pos[g1], pos[grp.conj(g1, g3)]
    fg = FiniteGraph(len(cls), [(r[a], r[b]) for r in acts if r[a] != r[b]])
    perms = sorted(set(map(Permutation, acts)))
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


def _canon(k):
    """For every edge mask on k vertices, the least mask of its orbit under
    relabeling, and a relabeling (image tuple) that sends the mask's graph
    to that least one.  Masks are swept in ascending order, so the first
    one not yet reached is the least of its orbit, which is then walked
    under the transposition (0 1) and the k-cycle, generators of S_k."""
    pos = _edge_positions(k)
    slot = {e: i for i, e in enumerate(pos)}
    size = 1 << len(pos)
    rep, perm = [None] * size, [None] * size
    moves = []   # (image of every mask, inverse relabeling) per generator
    for p in ([1, 0, *range(2, k)], [*range(1, k), 0]) if k > 1 else ():
        bits = [1 << slot[min(p[i], p[j]), max(p[i], p[j])] for i, j in pos]
        inv = [0] * k
        for i, j in enumerate(p):
            inv[j] = i
        moves.append((_subset_images(bits), inv))
    for mask in range(size):
        if rep[mask] is None:
            rep[mask], perm[mask] = mask, tuple(range(k))
            orbit = [mask]
            for x in orbit:
                px = perm[x]
                for image, inv in moves:
                    y = image[x]
                    if rep[y] is None:   # x relabeled by p; y's vertex i is x's inv[i]
                        rep[y], perm[y] = mask, tuple([px[j] for j in inv])
                        orbit.append(y)
    return rep, perm


def _iso_class_reps(n):
    """One labeled representative bitmask per isomorphism class of graphs
    on n vertices, ascending: the minimum edge-bitmask over all
    relabelings.  The pairs (0, j) hold the n-1 lowest bits, so under a
    relabeling that sends v to 0 the mask reads t << (n-1) | low, t the
    mask of the graph minus v on the vertices 1..n-1 and low the neighbours
    of v.  The least mask has the least t, a representative on n-1
    vertices, and the least low among the relabelings that reach it.  So t
    runs over those representatives and low over all neighbour sets, and
    t << (n-1) | low is kept unless some vertex v, taken as vertex 0, gives
    a smaller t, or the same t and a smaller low; the relabelings of the
    graph minus v onto t are one from `_canon` followed by each
    automorphism of t."""
    if n < 2:
        return (0,)
    k = n - 1
    rep, perm = _canon(k)
    slot = {e: i for i, e in enumerate(_edge_positions(k))}
    out = []
    for t in sorted(set(rep)):
        tg = _mask_to_graph(k, t)
        # the least image of each vertex set of t under its automorphisms
        minlow = list(map(min, zip(*[_subset_images([1 << a for a in p.images])
                                     for p in graph_automorphisms(tg).elements()])))
        nbrs = [0] * k
        for a, b in tg.edges:
            nbrs[a] |= 1 << b
            nbrs[b] |= 1 << a
        # removing the vertex v = w + 1 keeps vertex 0 and relabels the
        # others in order: `top` is the mask of t without w so relabeled,
        # `nb` the neighbours of v other than vertex 0
        drops = []
        for w in range(k):
            label = {u: i for i, u in enumerate((u for u in range(k) if u != w), 1)}
            top = sum(1 << slot[label[a], label[b]] for a, b in tg.edges if w not in (a, b))
            drops.append((w, top, [label[u] for u in label if nbrs[w] >> u & 1]))
        for low in range(1 << k):
            if minlow[low] < low:
                continue
            for w, top, nb in drops:
                mv = top | (low >> (w + 1)) << w | low & ((1 << w) - 1)
                if rep[mv] < t:
                    break
                if rep[mv] == t:
                    pi = perm[mv]
                    s = sum(1 << pi[u] for u in nb) | (low >> w & 1) << pi[0]
                    if minlow[s] < low:
                        break
            else:
                out.append(t << k | low)
    return tuple(out)


def _subset_images(bits):
    """For every x < 2^len(bits), the OR of bits[k] over the set bits k of x."""
    out = [0]
    for b in bits:
        out += [v | b for v in out]
    return out


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
    if n_max < 0:
        raise OutOfRangeError(f"census size must not be negative, got {brief(n_max)}")
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
            # Cauchy-Frobenius in integers: the fixed points number
            # |Aut| times the orbits, so their average is the orbit count
            cf_integral = (sum(p.fixed_count() for p in aut.elements())
                           == aut.order * orbit_count(aut))
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
