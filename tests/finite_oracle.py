"""The numpy implementations that the plain-Python finite layer replaced,
kept as differential oracles for tests/test_finite.py.

Each function is the former `rotagraph.finite` code of the same name,
without its budget checks.  `_subgroups_inside` also takes a table and a
mask as nested sequences and gives generator indices as ints, and
`graph_automorphisms` returns the automorphisms as image tuples.
"""

from functools import lru_cache
import itertools

import numpy as np


def _cayley_table(elems):
    """t[a, b] = index of elems[a] * elems[b], for a group's elements sorted
    by image tuple.  Rows compose, t[g * x] = t[g][t[x]], so only the first
    row not yet known is binary-searched (products among the image rows
    read as big-endian bytes, which sort as the tuples do); it joins the
    generators, and every row they reach from known rows follows."""
    n = len(elems)
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
    from element index set to generator indices."""
    table = np.asarray(table)
    allowed = np.asarray(allowed, dtype=bool)
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
                    subs[rkey] = [int(table[table[by][x]][inv[by]]) for x in ngens]
            queue.append((new, ngens))
    return subs


def _edge_positions(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@lru_cache(maxsize=8)
def _relabelings(n):
    """All n! relabelings of [0, n) in lexicographic order, and where each
    one sends each edge position of `_edge_positions(n)`."""
    perms = np.array(list(itertools.permutations(range(n)))).reshape(-1, n)
    i, j = np.array(_edge_positions(n), dtype=np.intp).reshape(-1, 2).T
    slot = np.zeros((n, n), dtype=np.intp)
    slot[i, j] = slot[j, i] = np.arange(len(i))
    moves = slot[perms[:, i], perms[:, j]]
    return perms, moves


def graph_automorphisms(fg):
    """The automorphisms of a FiniteGraph as image tuples, by brute force
    over all relabelings."""
    perms, moves = _relabelings(fg.n)
    mask = np.array([e in fg.edges for e in _edge_positions(fg.n)], dtype=bool)
    keep = (mask[moves] == mask).all(axis=1)   # edges onto edges
    return [tuple(p) for p in perms[keep].tolist()]


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
